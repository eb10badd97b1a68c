"""Unit tests for LXC-like containers."""

import pytest

from repro.sim.clock import SimulationClock
from repro.sim.container import Container, ContainerError, ContainerState
from repro.sim.contention import Allocation
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp


def make_container(**kwargs):
    app = kwargs.pop("app", None) or ConstantApp()
    return Container(name=app.name, app=app, **kwargs)


def full_allocation(vector: ResourceVector) -> Allocation:
    return Allocation(granted=vector, progress=1.0)


class TestLifecycle:
    def test_initial_state_created(self):
        assert make_container().state is ContainerState.CREATED

    def test_start(self):
        container = make_container()
        container.start()
        assert container.is_running

    def test_start_idempotent_when_running(self):
        container = make_container()
        container.start()
        container.start()
        assert container.is_running

    def test_stop_is_terminal(self):
        container = make_container()
        container.start()
        container.stop()
        with pytest.raises(ContainerError):
            container.start()
        with pytest.raises(ContainerError):
            container.pause()
        with pytest.raises(ContainerError):
            container.resume()

    def test_pause_resume_cycle(self):
        container = make_container()
        container.start()
        container.pause()
        assert container.is_paused
        container.resume()
        assert container.is_running
        assert container.pause_count == 1

    def test_pause_when_created_is_noop(self):
        container = make_container()
        container.pause()
        assert container.state is ContainerState.CREATED
        assert container.pause_count == 0

    def test_resume_when_running_is_noop(self):
        container = make_container()
        container.start()
        container.resume()
        assert container.is_running


class TestAutostart:
    def test_autostart_at_start_tick(self):
        container = make_container(start_tick=5)
        clock = SimulationClock()
        container.maybe_autostart(clock)
        assert container.state is ContainerState.CREATED
        clock.advance(5)
        container.maybe_autostart(clock)
        assert container.is_running

    def test_autostart_does_not_restart_stopped(self):
        container = make_container(start_tick=0)
        clock = SimulationClock()
        container.maybe_autostart(clock)
        container.stop()
        container.maybe_autostart(clock)
        assert container.state is ContainerState.STOPPED


class TestDemand:
    def test_paused_container_demands_nothing(self, clock):
        container = make_container()
        container.start()
        container.pause()
        assert container.demand(clock).is_zero()

    def test_created_container_demands_nothing(self, clock):
        assert make_container().demand(clock).is_zero()

    def test_running_container_demands_app_demand(self, clock):
        app = ConstantApp(demand_vector=ResourceVector(cpu=1.5))
        container = Container(name="c", app=app)
        container.start()
        assert container.demand(clock).cpu == pytest.approx(1.5)

    def test_limits_cap_demand(self, clock):
        app = ConstantApp(demand_vector=ResourceVector(cpu=4.0, memory=100.0))
        limits = ResourceVector(
            cpu=1.0, memory=1e9, memory_bw=1e9, disk_io=1e9, network=1e9
        )
        container = Container(name="c", app=app, limits=limits)
        container.start()
        demand = container.demand(clock)
        assert demand.cpu == pytest.approx(1.0)
        assert demand.memory == pytest.approx(100.0)

    def test_finished_app_demands_nothing(self, clock):
        app = ConstantApp(total_work=1.0)
        container = Container(name="c", app=app)
        container.start()
        container.deliver(full_allocation(app.demand_vector), clock)
        assert app.finished
        assert container.demand(clock).is_zero()


class TestDelivery:
    def test_deliver_advances_app(self, clock):
        app = ConstantApp()
        container = Container(name="c", app=app)
        container.start()
        container.deliver(full_allocation(app.demand_vector), clock)
        assert app.work_done == pytest.approx(1.0)
        assert container.running_ticks == 1

    def test_finishing_app_stops_container(self, clock):
        app = ConstantApp(total_work=1.0)
        container = Container(name="c", app=app)
        container.start()
        container.deliver(full_allocation(app.demand_vector), clock)
        assert container.state is ContainerState.STOPPED

    def test_usage_snapshot_reflects_last_allocation(self, clock):
        app = ConstantApp(demand_vector=ResourceVector(cpu=2.0))
        container = Container(name="c", app=app)
        container.start()
        allocation = full_allocation(ResourceVector(cpu=2.0))
        container.deliver(allocation, clock)
        assert container.usage_snapshot().cpu == pytest.approx(2.0)

    def test_usage_snapshot_zero_while_paused(self, clock):
        app = ConstantApp()
        container = Container(name="c", app=app)
        container.start()
        container.deliver(full_allocation(ResourceVector(cpu=1.0)), clock)
        container.pause()
        assert container.usage_snapshot().is_zero()

    def test_paused_tick_accounting(self):
        container = make_container()
        container.start()
        container.pause()
        container.observe_paused_tick()
        container.observe_paused_tick()
        assert container.paused_ticks == 2
