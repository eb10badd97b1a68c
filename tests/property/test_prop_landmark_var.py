"""Property-based tests for landmark MDS and the VAR forecaster."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mds.distances import pairwise_distances
from repro.mds.landmark import landmark_mds_fit, select_landmarks
from repro.trajectory.var import VectorAutoregression


class TestLandmarkProperties:
    @given(
        arrays(float, st.tuples(st.integers(8, 40), st.just(3)),
               elements=st.floats(-5.0, 5.0, allow_nan=False)),
        st.integers(2, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_selection_is_valid_indices(self, points, k):
        indices = select_landmarks(points, k, seed=0)
        assert len(indices) == min(k, points.shape[0])
        assert len(set(indices.tolist())) == len(indices)
        assert np.all(indices >= 0) and np.all(indices < points.shape[0])

    @given(
        arrays(float, st.tuples(st.integers(10, 40), st.just(2)),
               elements=st.floats(-5.0, 5.0, allow_nan=False)),
    )
    @settings(max_examples=40, deadline=None)
    def test_planar_embedding_finite_and_shaped(self, points):
        coords = landmark_mds_fit(points, k=min(8, points.shape[0]), seed=1)
        assert coords.shape == (points.shape[0], 2)
        assert np.all(np.isfinite(coords))


class TestVarProperties:
    @given(
        st.integers(1, 3),
        st.integers(2, 5),
        st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_predict_shapes(self, order, dim, seed):
        rng = np.random.default_rng(seed)
        series = rng.normal(size=(order + 20, dim))
        model = VectorAutoregression(order=order, ridge=1e-6).fit(series)
        forecast = model.predict_next(series)
        assert forecast.shape == (dim,)
        assert np.all(np.isfinite(forecast))

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_constant_series_predicts_constant(self, seed):
        rng = np.random.default_rng(seed)
        level = rng.normal()
        series = np.full((30, 2), level) + rng.normal(0, 1e-9, size=(30, 2))
        model = VectorAutoregression(order=1, ridge=1e-9).fit(series)
        forecast = model.predict_next(series)
        np.testing.assert_allclose(forecast, level, atol=1e-4)

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_in_sample_forecasts_beat_noise_scale(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 80, 2
        series = np.zeros((n, d))
        for t in range(1, n):
            series[t] = 0.9 * series[t - 1] + rng.normal(0, 0.1, size=d)
        model = VectorAutoregression(order=1).fit(series)
        forecasts = np.array([model.predict_next(series[:t]) for t in range(1, n)])
        errors = np.linalg.norm(forecasts - series[1:], axis=1)
        # In-sample error should be on the order of the innovation noise.
        assert np.median(errors) < 0.5
