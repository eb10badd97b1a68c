"""Property-based tests for traces and normalizers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.normalize import CapacityNormalizer
from repro.sim.resources import default_host_capacity
from repro.workloads.traces import WorkloadTrace, diurnal_trace


class TestTraceProperties:
    @given(
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.1, 10_000.0),
        st.floats(0.0, 1e6),
    )
    @settings(max_examples=100)
    def test_intensity_within_sample_range(self, samples, sample_seconds, t):
        trace = WorkloadTrace(samples, sample_seconds=sample_seconds)
        value = trace.intensity(t)
        assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9

    @given(
        st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=20),
        st.floats(0.0, 1000.0),
    )
    @settings(max_examples=100)
    def test_wrap_periodicity(self, samples, t):
        trace = WorkloadTrace(samples, sample_seconds=10.0, wrap=True)
        period = trace.duration_seconds
        assert trace.intensity(t) == trace.intensity(t + period) or np.isclose(
            trace.intensity(t), trace.intensity(t + period), atol=1e-9
        )

    @given(st.integers(1, 6), st.integers(4, 48))
    @settings(max_examples=40)
    def test_diurnal_output_shape_and_bounds(self, days, samples_per_day):
        series = diurnal_trace(days=days, samples_per_day=samples_per_day, noise=0.0)
        assert series.shape == (days * samples_per_day,)
        assert np.all(series >= 0.0)
        assert series.max() <= 1.0 + 1e-9


class TestNormalizerProperties:
    @given(
        st.lists(
            st.lists(st.floats(0.0, 1e5, allow_nan=False), min_size=5, max_size=5),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=80)
    def test_capacity_normalizer_output_in_unit_box(self, rows):
        normalizer = CapacityNormalizer(tuple(default_host_capacity()), vm_count=1)
        for row in rows:
            out = normalizer.normalize(np.asarray(row))
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @given(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=5, max_size=5),
    )
    @settings(max_examples=60)
    def test_capacity_normalizer_monotone(self, row):
        """Scaling all raw metrics up never decreases any normalized value."""
        normalizer = CapacityNormalizer(tuple(default_host_capacity()), vm_count=1)
        base = np.asarray(row) * 100.0
        bigger = base * 1.5
        out_base = normalizer.normalize(base)
        out_bigger = normalizer.normalize(bigger)
        assert np.all(out_bigger >= out_base - 1e-12)
