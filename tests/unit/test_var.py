"""Unit tests for the VAR forecaster."""

import numpy as np
import pytest

from repro.trajectory.var import VectorAutoregression, rolling_var_forecast_error


def ar1_series(n=200, d=2, coefficient=0.8, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    series = np.zeros((n, d))
    series[0] = rng.normal(size=d)
    for t in range(1, n):
        series[t] = coefficient * series[t - 1] + rng.normal(0, noise, size=d)
    return series


class TestVectorAutoregression:
    def test_validation(self):
        with pytest.raises(ValueError):
            VectorAutoregression(order=0)
        with pytest.raises(ValueError):
            VectorAutoregression(ridge=-1.0)
        with pytest.raises(ValueError):
            VectorAutoregression().fit(np.zeros(5))
        with pytest.raises(ValueError):
            VectorAutoregression(order=5).fit(np.zeros((3, 2)))

    def test_recovers_ar1_coefficient(self):
        series = ar1_series(coefficient=0.8)
        model = VectorAutoregression(order=1).fit(series)
        # Coefficient block rows 1..d correspond to lag-1 matrix A_1.
        a1 = model.coefficients[1:3]
        np.testing.assert_allclose(np.diag(a1), [0.8, 0.8], atol=0.05)

    def test_predict_next_shape_and_quality(self):
        series = ar1_series()
        model = VectorAutoregression(order=1).fit(series)
        forecast = model.predict_next(series)
        assert forecast.shape == (2,)
        # On a strongly autoregressive series the forecast is close.
        next_true = 0.8 * series[-1]
        assert np.linalg.norm(forecast - next_true) < 0.1

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            VectorAutoregression().predict_next(np.zeros((2, 2)))

    def test_predict_dimension_checked(self):
        model = VectorAutoregression().fit(ar1_series(d=2))
        with pytest.raises(ValueError):
            model.predict_next(np.zeros((3, 5)))


class TestRollingForecast:
    def test_produces_errors(self):
        series = ar1_series(n=100)
        errors = rolling_var_forecast_error(series, train_window=30)
        assert errors.shape == (70,)
        assert np.all(errors >= 0)

    def test_curse_of_dimensionality(self):
        """§3.1's claim: with a fixed small training window, raising the
        dimensionality degrades VAR's reliability."""
        rng = np.random.default_rng(7)

        def noisy_series(d):
            base = ar1_series(n=120, d=d, coefficient=0.7, noise=0.05,
                              seed=11)
            return base

        low = rolling_var_forecast_error(noisy_series(2), train_window=15)
        high = rolling_var_forecast_error(noisy_series(10), train_window=15)
        # Per-dimension error normalization keeps the comparison fair.
        low_norm = np.median(low) / np.sqrt(2)
        high_norm = np.median(high) / np.sqrt(10)
        assert high_norm > low_norm
