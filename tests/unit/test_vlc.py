"""Unit tests for the VLC workload models."""

import pytest

from repro.sim.clock import SimulationClock
from repro.sim.contention import Allocation
from repro.sim.resources import ResourceVector
from repro.workloads.traces import WorkloadTrace
from repro.workloads.vlc import VlcStreamingServer, VlcTranscoder


def allocation(progress):
    return Allocation(granted=ResourceVector.zero(), progress=progress)


class TestVlcStreamingServer:
    def test_is_sensitive(self):
        assert VlcStreamingServer().is_sensitive

    def test_demand_scales_with_trace(self):
        trace = WorkloadTrace([0.5, 1.0], sample_seconds=100.0, wrap=False)
        app = VlcStreamingServer(trace=trace, noise_std=0.0, cpu_peak=3.0)
        clock = SimulationClock()
        low = app.demand(clock)
        clock.advance(100)
        high = app.demand(clock)
        assert low.cpu == pytest.approx(1.5)
        assert high.cpu == pytest.approx(3.0)
        assert high.network > low.network

    def test_memory_independent_of_intensity(self):
        trace = WorkloadTrace([0.1, 1.0], sample_seconds=100.0, wrap=False)
        app = VlcStreamingServer(trace=trace, noise_std=0.0, memory_mb=512.0)
        clock = SimulationClock()
        assert app.demand(clock).memory == pytest.approx(512.0)

    def test_qos_report_tracks_progress(self, clock):
        app = VlcStreamingServer(noise_std=0.0, required_fps=25.0)
        assert app.qos_report() is None
        app.advance(allocation(0.8), clock)
        report = app.qos_report()
        assert report.value == pytest.approx(0.8)
        assert report.violated  # 0.8 < default threshold 0.95
        assert app.required_fps * report.value == pytest.approx(20.0)

    def test_full_progress_is_not_a_violation(self, clock):
        app = VlcStreamingServer(noise_std=0.0)
        app.advance(allocation(1.0), clock)
        assert not app.qos_report().violated

    def test_duration_finishes_stream(self, clock):
        app = VlcStreamingServer(duration=2, noise_std=0.0)
        app.advance(allocation(1.0), clock)
        assert not app.finished
        app.advance(allocation(1.0), clock)
        assert app.finished
        assert app.demand(clock).is_zero()

    def test_endless_by_default(self, clock):
        app = VlcStreamingServer(noise_std=0.0)
        for _ in range(100):
            app.advance(allocation(1.0), clock)
        assert not app.finished


class TestVlcTranscoder:
    def test_is_batch(self):
        assert not VlcTranscoder().is_sensitive

    def test_steady_demand(self, clock):
        app = VlcTranscoder(noise_std=0.0, cpu=1.8)
        demand = app.demand(clock)
        assert demand.cpu == pytest.approx(1.8)
        assert demand.memory_bw > 0
        assert demand.disk_io > 0

    def test_finishes_after_total_work(self, clock):
        app = VlcTranscoder(total_work=3.0, noise_std=0.0)
        for _ in range(3):
            app.advance(allocation(1.0), clock)
        assert app.finished

    def test_starvation_stretches_runtime(self, clock):
        app = VlcTranscoder(total_work=2.0, noise_std=0.0)
        for _ in range(3):
            app.advance(allocation(0.5), clock)
        assert not app.finished
        app.advance(allocation(0.5), clock)
        assert app.finished
