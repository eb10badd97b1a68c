"""Unit tests for collector behaviour under container churn."""

import pytest

from repro.monitoring.collector import MetricsCollector
from repro.sim.container import Container
from repro.sim.host import Host
from repro.sim.resources import ResourceVector

from tests.conftest import ConstantApp, SensitiveStub, reading


class TestAggregatedChurn:
    def test_late_batch_arrivals_fold_into_logical_vm(self):
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=1.0))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        collector = MetricsCollector()
        collector.on_tick(host.observe(host.step()))
        assert reading(collector.latest, "batch:cpu") == 0.0

        # A batch container arrives after the layout was fixed.
        late = ConstantApp(name="late", demand_vector=ResourceVector(cpu=0.7))
        host.add_container(Container(name="late", app=late))
        collector.on_tick(host.observe(host.step()))
        assert reading(collector.latest, "batch:cpu") == pytest.approx(0.7)
        # Layout unchanged: same labels, same dimension.
        assert collector.dimension == 10

    def test_departed_batch_reads_zero(self):
        host = Host()
        sensitive = SensitiveStub(demand_vector=ResourceVector(cpu=1.0))
        batch = ConstantApp(name="b", demand_vector=ResourceVector(cpu=0.5))
        host.add_container(Container(name="sens", app=sensitive, sensitive=True))
        host.add_container(Container(name="b", app=batch))
        collector = MetricsCollector()
        collector.on_tick(host.observe(host.step()))
        host.containers.pop("b")
        collector.on_tick(host.observe(host.step()))
        assert reading(collector.latest, "batch:cpu") == 0.0
