"""Unit tests for the simulated host."""

import pytest

from repro.sim.container import Container, ContainerState
from repro.sim.host import Host
from repro.sim.resources import Resource, ResourceVector

from tests.conftest import ConstantApp, SensitiveStub


class TestContainerManagement:
    def test_add_and_lookup(self, host):
        container = Container(name="a", app=ConstantApp(name="a"))
        host.add_container(container)
        assert host.container("a") is container

    def test_duplicate_names_rejected(self, host):
        host.add_container(Container(name="a", app=ConstantApp(name="a")))
        with pytest.raises(ValueError):
            host.add_container(Container(name="a", app=ConstantApp(name="a")))

    def test_sensitive_batch_partition(self, loaded_host):
        sensitive = loaded_host.sensitive_containers()
        batch = loaded_host.batch_containers()
        assert len(sensitive) == 1 and sensitive[0].sensitive
        assert len(batch) == 1 and not batch[0].sensitive


class TestStep:
    def test_autostart_on_first_step(self, loaded_host):
        loaded_host.step()
        for container in loaded_host.containers.values():
            assert container.is_running

    def test_step_advances_clock(self, loaded_host):
        loaded_host.step()
        loaded_host.step()
        assert loaded_host.clock.tick == 2

    def test_snapshot_has_usage_for_every_container(self, loaded_host):
        snapshot = loaded_host.step()
        assert set(snapshot.usage) == set(loaded_host.containers)

    def test_paused_container_shows_zero_usage(self, loaded_host):
        loaded_host.step()
        loaded_host.pause("constant")
        snapshot = loaded_host.step()
        assert snapshot.usage["constant"].is_zero()
        assert snapshot.states["constant"] is ContainerState.PAUSED

    def test_pause_resume_signals(self, loaded_host):
        loaded_host.step()
        assert loaded_host.pause("constant") is True
        assert loaded_host.container("constant").is_paused
        assert loaded_host.resume("constant") is True
        assert loaded_host.container("constant").is_running
        assert loaded_host.pause("ghost") is False  # a refusal is an answer

    def test_delayed_start_tick(self, host):
        app = ConstantApp(name="late")
        host.add_container(Container(name="late", app=app, start_tick=3))
        for _ in range(3):
            snapshot = host.step()
            assert snapshot.usage["late"].is_zero()
        snapshot = host.step()
        assert snapshot.usage["late"].get(Resource.CPU) > 0

    def test_contention_degrades_sensitive_progress(self, host):
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0))
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb))
        host.step()
        report = sensitive.qos_report()
        assert report is not None
        assert report.value == pytest.approx(4.0 / 7.0)
        assert report.violated

    def test_pausing_batch_restores_sensitive_progress(self, host):
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=3.0))
        bomb = ConstantApp(name="bomb", demand_vector=ResourceVector(cpu=4.0))
        host.add_container(Container(name="s", app=sensitive, sensitive=True))
        host.add_container(Container(name="bomb", app=bomb))
        host.step()
        host.pause("bomb")
        host.step()
        assert sensitive.qos_report().value == pytest.approx(1.0)

    def test_swap_ratio_clears_when_every_tenant_is_paused(self, host):
        hog = ResourceVector(cpu=1.0, memory=6000.0)
        for name in ("a", "b"):
            app = ConstantApp(name=name, demand_vector=hog)
            host.add_container(Container(name=name, app=app))
        assert host.step().swap_ratio == pytest.approx(12000.0 / 8192.0)
        host.pause("a")
        host.pause("b")
        assert host.step().swap_ratio == 1.0

    def test_last_snapshot_is_the_latest_tick(self, loaded_host):
        assert loaded_host.last_snapshot is None
        for _ in range(3):
            snapshot = loaded_host.step()
            assert loaded_host.last_snapshot is snapshot

    def test_each_step_returns_its_own_tick(self, loaded_host):
        assert [loaded_host.step().tick for _ in range(2)] == [0, 1]


class TestSnapshotHelpers:
    def test_cpu_utilization_bounded(self, loaded_host):
        snapshot = loaded_host.step()
        utilization = snapshot.cpu_utilization(loaded_host.capacity)
        assert 0.0 <= utilization <= 1.0

    def test_all_finished(self, host):
        app = ConstantApp(total_work=2.0)
        host.add_container(Container(name="c", app=app))
        assert not host.all_finished()
        host.step()
        host.step()
        assert host.all_finished()
