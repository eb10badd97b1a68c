"""Failure-injection and robustness tests.

The controller must stay well-behaved when the environment misbehaves:
batch jobs dying mid-throttle, containers being evicted, sensitive
streams ending early, degenerate metric inputs, multi-batch churn.
"""

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.core.events import EventKind
from repro.core.resilience import ControllerHealth
from repro.sim.container import Container
from repro.sim.engine import SimulationEngine
from repro.sim.faults import DemandSpiker
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub
from tests.support.scripted_faults import FaultSchedule, MonitoringDropout


def contended(batch_cpu=4.0, **batch_kwargs):
    host = Host()
    sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0, memory=500.0))
    bomb = ConstantApp(
        name="bomb",
        demand_vector=ResourceVector(cpu=batch_cpu, memory=64.0),
        **batch_kwargs,
    )
    host.add_container(Container(name="sens", app=sensitive, sensitive=True))
    host.add_container(Container(name="bomb", app=bomb, start_tick=5))
    return host, sensitive, bomb


class TestBatchDeath:
    def test_batch_finishing_while_throttled(self):
        """A paused batch job whose container is stopped must not wedge
        the throttle state machine."""
        host, sensitive, bomb = contended()
        controller = StayAway(sensitive, config=StayAwayConfig(seed=1))
        engine = SimulationEngine(host, [controller])
        engine.run(ticks=30)
        assert controller.throttle.throttle_count >= 1
        # Kill the batch container while paused.
        host.container("bomb").stop()
        engine.run(ticks=30)
        assert not controller.throttle.throttling
        # The system settles into sensitive-only with no violations.
        late_violations = [
            tick for tick in controller.qos.violation_ticks if tick > 35
        ]
        assert late_violations == []

    def test_batch_evicted_from_host_entirely(self):
        host, sensitive, _ = contended()
        controller = StayAway(sensitive, config=StayAwayConfig(seed=2))
        engine = SimulationEngine(host, [controller])
        engine.run(ticks=20)
        host.containers.pop("bomb")  # gone, as a migration takes it
        engine.run(ticks=20)  # must not raise
        assert not controller.throttle.throttling


class TestSensitiveDeath:
    def test_stream_ending_mid_run(self):
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0))
        host.add_container(Container(name="bomb", app=bomb, start_tick=5))
        controller = StayAway(sensitive, config=StayAwayConfig(seed=3))
        engine = SimulationEngine(host, [controller])
        engine.run(ticks=40)
        # The stream ends: controller keeps running without errors and
        # the batch job can use the whole machine again.
        sensitive._finish()
        host.container("sens").stop()
        engine.run(ticks=40)
        assert controller.trajectory[-1].tick == 79


class TestMetricDegeneracy:
    def test_all_zero_usage_ticks(self):
        """Idle periods produce all-zero measurement vectors; the map
        must absorb them without numerical blowups."""
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=1.0))
        host.add_container(
            Container(name="sens", app=sensitive, sensitive=True, start_tick=20)
        )
        controller = StayAway(sensitive, config=StayAwayConfig(seed=4))
        SimulationEngine(host, [controller]).run(ticks=40)
        coords = np.vstack([point.coords for point in controller.trajectory])
        assert np.all(np.isfinite(coords))

    def test_constant_demand_degenerate_map(self):
        """A perfectly flat workload collapses to one representative;
        prediction must simply stay silent, not crash."""
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        controller = StayAway(sensitive, config=StayAwayConfig(seed=5))
        SimulationEngine(host, [controller]).run(ticks=50)
        assert len(controller.state_space) <= 3
        assert controller.throttle.throttle_count == 0


class TestMultiBatchChurn:
    def test_staggered_batch_jobs(self):
        """Batch jobs arriving and finishing at different times under
        an active controller."""
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=2.5))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        for i, start in enumerate([5, 25, 45]):
            app = ConstantApp(
                name=f"job{i}",
                demand_vector=ResourceVector(cpu=2.0, memory=100.0),
                total_work=30.0,
            )
            host.add_container(Container(name=f"job{i}", app=app, start_tick=start))
        controller = StayAway(sensitive, config=StayAwayConfig(seed=6))
        SimulationEngine(host, [controller]).run(ticks=120)
        # All jobs eventually complete or the run ends cleanly.
        assert len(controller.trajectory) == 120
        # The sensitive app was protected most of the time.
        assert controller.qos.violation_ratio() < 0.3

    def test_pause_resume_storm(self):
        """Rapid manual pause/resume of batch containers must not
        desynchronize the controller's bookkeeping."""
        host, sensitive, _ = contended()
        controller = StayAway(sensitive, config=StayAwayConfig(seed=7))
        engine = SimulationEngine(host, [controller])

        class Chaos:
            def on_tick(self, snapshot, h):
                if snapshot.tick % 7 == 3 and h.container("bomb").is_running:
                    h.pause("bomb")
                elif snapshot.tick % 7 == 5 and h.container("bomb").is_paused:
                    h.resume("bomb")

        engine.add_middleware(Chaos())
        engine.run(ticks=100)  # must not raise
        assert len(controller.trajectory) == 100


class TestCompoundFailures:
    def test_dropout_kill_and_spike_resynchronize(self):
        """Monitoring dropout + external batch kill/restart + a demand
        spike in one run: the controller must degrade during the outage,
        resynchronize afterwards, and finish with a consistent summary."""
        host, sensitive, bomb = contended()
        config = StayAwayConfig(seed=11)
        controller = StayAway(sensitive, config=config)

        spiker = DemandSpiker(sensitive, windows=[(40, 50)], factor=1.5)
        faults = FaultSchedule().kill(100, "bomb").restart(130, "bomb")
        dropout = MonitoringDropout(controller, windows=[(60, 90)])
        engine = SimulationEngine(host, [faults, dropout])
        engine.run(ticks=160)
        spiker.remove()

        # The monitoring outage was long enough to degrade...
        health = controller.health
        assert health is not None
        entries = health.summary()["degraded_entries"]
        assert entries >= 1
        enters = controller.events.of_kind(EventKind.DEGRADED_ENTER)
        exits = controller.events.of_kind(EventKind.DEGRADED_EXIT)
        assert len(enters) == entries
        # ...and the controller resynchronized back to predictive mode.
        assert health.state is ControllerHealth.PREDICTIVE
        assert len(exits) >= 1
        assert exits[-1].tick > 90  # after the dropout window

        # Dropped ticks produced no trajectory points; every mapped
        # point is finite despite the spike and the churn.
        dropped = set(dropout.dropped_ticks)
        assert dropped
        assert all(point.tick not in dropped for point in controller.trajectory)
        coords = np.vstack([point.coords for point in controller.trajectory])
        assert np.all(np.isfinite(coords))

        # The scripted faults actually fired (kill, then restart).
        assert [event.kind for event in faults.fired] == ["kill", "restart"]
        assert host.container("bomb").is_running or controller.throttle.throttling

        # Summary counters are mutually consistent.
        summary = controller.summary()
        assert summary["periods"] == len(controller.trajectory)
        guard = summary["resilience"]["guard"]
        assert guard["accepted"] + guard["imputed"] == summary["periods"]
        assert summary["resilience"]["health"]["degraded_entries"] == entries
        assert summary["violations_observed"] == controller.qos.violation_count
        assert summary["throttles"] == controller.throttle.throttle_count
        assert summary["resumes"] == controller.throttle.resume_count
