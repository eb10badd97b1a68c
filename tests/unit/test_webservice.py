"""Unit tests for the Webservice workload model."""

import pytest

from repro.sim.clock import SimulationClock
from repro.sim.contention import Allocation
from repro.sim.resources import ResourceVector
from repro.workloads.traces import WorkloadTrace
from repro.workloads.webservice import Webservice, WebserviceWorkload


def allocation(progress):
    return Allocation(granted=ResourceVector.zero(), progress=progress)


class TestWorkloadTypes:
    def test_cpu_mix_memory_demand_ordering(self, clock):
        cpu = Webservice(WebserviceWorkload.CPU, noise_std=0.0)
        mem = Webservice(WebserviceWorkload.MEMORY, noise_std=0.0)
        mix = Webservice(WebserviceWorkload.MIX, noise_std=0.0)
        assert cpu.demand(clock).cpu > mix.demand(clock).cpu > mem.demand(clock).cpu
        assert (
            mem.demand(clock).memory
            > mix.demand(clock).memory
            > cpu.demand(clock).memory
        )
        assert mem.demand(clock).memory_bw > cpu.demand(clock).memory_bw

    def test_string_workload_coerced(self):
        app = Webservice("memory")
        assert app.workload is WebserviceWorkload.MEMORY
        assert app.name == "webservice-memory"

    def test_is_sensitive(self):
        assert Webservice().is_sensitive


class TestIntensityScaling:
    def test_cpu_scales_with_intensity(self):
        trace = WorkloadTrace([0.5, 1.0], sample_seconds=100.0, wrap=False)
        app = Webservice(WebserviceWorkload.CPU, trace=trace, noise_std=0.0)
        clock = SimulationClock()
        low = app.demand(clock).cpu
        clock.advance(100)
        high = app.demand(clock).cpu
        assert high == pytest.approx(2.0 * low)

    def test_memcached_resident_set_has_floor(self):
        # Even at zero intensity the memcached slabs stay resident.
        trace = WorkloadTrace([0.0, 0.0], sample_seconds=100.0)
        app = Webservice(WebserviceWorkload.MEMORY, trace=trace, noise_std=0.0)
        clock = SimulationClock()
        demand = app.demand(clock)
        assert demand.memory == pytest.approx(4600.0 * 0.7)
        assert demand.cpu == pytest.approx(0.0)

    def test_resident_set_grows_with_intensity(self):
        trace = WorkloadTrace([0.2, 1.0], sample_seconds=100.0, wrap=False)
        app = Webservice(WebserviceWorkload.MEMORY, trace=trace, noise_std=0.0)
        clock = SimulationClock()
        low = app.demand(clock).memory
        clock.advance(100)
        high = app.demand(clock).memory
        assert high > low
        assert high == pytest.approx(4600.0)


class TestQos:
    def test_report_is_progress(self, clock):
        app = Webservice(noise_std=0.0)
        app.advance(allocation(0.85), clock)
        report = app.qos_report()
        assert report.value == pytest.approx(0.85)
        assert report.violated  # below default 0.9 threshold

    def test_completed_tps_scales_with_intensity_and_progress(self):
        trace = WorkloadTrace.constant(0.5)
        app = Webservice(trace=trace, offered_tps=1000.0, noise_std=0.0)
        clock = SimulationClock()
        app.advance(allocation(0.8), clock)
        completed = app.offered_tps * app.current_intensity(clock) * app.qos_report().value
        assert completed == pytest.approx(400.0)

    def test_duration(self, clock):
        app = Webservice(duration=1, noise_std=0.0)
        app.advance(allocation(1.0), clock)
        assert app.finished
        assert app.demand(clock).is_zero()
