"""Unit tests for workload traces."""

import numpy as np
import pytest

from repro.workloads.traces import (
    WIKIPEDIA_HOURLY_SHAPE,
    WorkloadTrace,
    diurnal_trace,
    wikipedia_trace,
)
from tests.support.tick_reference import reference_intensity


class TestWorkloadTrace:
    def test_needs_samples(self):
        with pytest.raises(ValueError):
            WorkloadTrace([])

    def test_negative_intensities_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTrace([1.0, -0.5])

    def test_positive_sample_seconds_required(self):
        with pytest.raises(ValueError):
            WorkloadTrace([1.0], sample_seconds=0)

    def test_exact_sample_points(self):
        trace = WorkloadTrace([0.2, 0.8], sample_seconds=10.0)
        assert trace.intensity(0.0) == pytest.approx(0.2)
        assert trace.intensity(10.0) == pytest.approx(0.8)

    def test_linear_interpolation(self):
        trace = WorkloadTrace([0.0, 1.0], sample_seconds=10.0)
        assert trace.intensity(5.0) == pytest.approx(0.5)

    def test_wrap_around(self):
        trace = WorkloadTrace([0.0, 1.0], sample_seconds=10.0, wrap=True)
        # At t=15 we are halfway from sample 1 back to sample 0.
        assert trace.intensity(15.0) == pytest.approx(0.5)
        assert trace.intensity(20.0) == pytest.approx(0.0)

    def test_no_wrap_clamps(self):
        trace = WorkloadTrace([0.0, 1.0], sample_seconds=10.0, wrap=False)
        assert trace.intensity(1000.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("wrap", [True, False])
    def test_intensity_equals_the_numpy_expression_bit_for_bit(self, wrap):
        """``intensity`` interpolates on a ``tolist()`` copy with
        ``math.floor``; the parent indexed the array and used ``np.floor``."""
        samples = diurnal_trace(days=2, noise=0.05, seed=9)
        trace = WorkloadTrace(samples, sample_seconds=12.5, wrap=wrap)
        times = [i * 12.5 for i in range(2 * len(samples) + 2)]  # exact sample times
        times += [i * 0.7310585786300049 for i in range(3000)]
        times += [trace.duration_seconds, trace.duration_seconds - 1e-9, 1e9, 1e9 + 0.1]
        for now in times:
            ours = trace.intensity(now)
            theirs = reference_intensity(trace.samples, 12.5, wrap, now)
            assert type(ours) is float and ours.hex() == theirs.hex(), now

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            WorkloadTrace([1.0]).intensity(-1.0)

    def test_duration(self):
        trace = WorkloadTrace([1.0, 1.0, 1.0], sample_seconds=5.0)
        assert trace.duration_seconds == 15.0

    def test_constant(self):
        trace = WorkloadTrace.constant(0.7)
        for t in [0.0, 123.0, 99999.0]:
            assert trace.intensity(t) == pytest.approx(0.7)

    def test_step_levels(self):
        trace = WorkloadTrace.step([0.2, 0.9], step_seconds=100.0)
        assert trace.intensity(10.0) == pytest.approx(0.2)
        assert trace.intensity(160.0) == pytest.approx(0.9)


class TestDiurnalTrace:
    def test_shape_length(self):
        series = diurnal_trace(days=3, samples_per_day=24, noise=0.0)
        assert series.shape == (72,)

    def test_daily_periodicity_without_noise(self):
        series = diurnal_trace(days=2, samples_per_day=24, noise=0.0)
        np.testing.assert_allclose(series[:24], series[24:])

    def test_base_peak_mapping(self):
        series = diurnal_trace(days=1, noise=0.0, base=0.2, peak=0.8)
        assert series.max() == pytest.approx(0.8)
        assert series.min() >= 0.2

    def test_noise_is_seeded(self):
        a = diurnal_trace(days=1, noise=0.05, seed=3)
        b = diurnal_trace(days=1, noise=0.05, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_resampling(self):
        series = diurnal_trace(days=1, samples_per_day=48, noise=0.0)
        assert series.shape == (48,)
        assert series.max() == pytest.approx(1.0)

    def test_days_validated(self):
        with pytest.raises(ValueError):
            diurnal_trace(days=0)

    def test_non_negative(self):
        series = diurnal_trace(days=4, noise=0.3, seed=1)
        assert np.all(series >= 0.0)


class TestWikipediaTrace:
    def test_shape_has_diurnal_structure(self):
        # Trough in the early morning hours, peak in the evening.
        shape = np.asarray(WIKIPEDIA_HOURLY_SHAPE)
        assert len(shape) == 24
        assert shape.argmin() in range(3, 7)
        assert shape.argmax() in range(17, 22)

    def test_returns_trace(self):
        trace = wikipedia_trace(days=2, sample_seconds=60.0, noise=0.0)
        assert isinstance(trace, WorkloadTrace)
        assert trace.intensity(0.0) > 0

    def test_peak_normalization(self):
        trace = wikipedia_trace(days=1, noise=0.0, peak=1.0, base=0.0)
        values = [trace.intensity(t * 3600.0) for t in range(24)]
        assert max(values) == pytest.approx(1.0, abs=1e-6)
