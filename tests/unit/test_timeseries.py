"""Unit tests for the Series helper."""

import numpy as np
import pytest

from repro.monitoring.timeseries import Series


class TestSeries:
    def test_append_and_iterate(self):
        series = Series("x")
        series.append(0, 1.0)
        series.append(1, 2.0)
        assert list(series) == [(0, 1.0), (1, 2.0)]
        assert len(series) == 2

    def test_monotonic_ticks_enforced(self):
        series = Series()
        series.append(5, 1.0)
        with pytest.raises(ValueError):
            series.append(4, 2.0)

    def test_equal_ticks_allowed(self):
        series = Series()
        series.append(5, 1.0)
        series.append(5, 2.0)
        assert len(series) == 2

    def test_extend(self):
        series = Series()
        series.extend([(0, 1.0), (1, 3.0)])
        np.testing.assert_array_equal(series.values, [1.0, 3.0])

    def test_mean_empty_is_zero(self):
        assert Series().mean() == 0.0

    def test_mean(self):
        series = Series()
        series.extend([(0, 1.0), (1, 3.0)])
        assert series.mean() == pytest.approx(2.0)
