"""Unit tests for the per-mode trajectory model."""

import numpy as np
import pytest

from repro.trajectory.sampling import TrajectoryModel


class TestObservation:
    def test_first_observation_sets_reference_only(self):
        model = TrajectoryModel()
        model.observe(np.array([0.0, 0.0]))
        assert model.steps_observed == 0
        np.testing.assert_allclose(model.last_point, [0.0, 0.0])

    def test_second_observation_records_step(self):
        model = TrajectoryModel()
        model.observe(np.array([0.0, 0.0]))
        model.observe(np.array([3.0, 4.0]))
        assert model.steps_observed == 1
        assert model.distances.samples[0] == pytest.approx(5.0)
        assert model.angles.samples[0] == pytest.approx(np.arctan2(4.0, 3.0))

    def test_break_continuity(self):
        model = TrajectoryModel()
        model.observe(np.array([0.0, 0.0]))
        model.break_continuity()
        assert model.last_point is None
        model.observe(np.array([10.0, 10.0]))
        assert model.steps_observed == 0  # no cross-break step recorded

    def test_point_shape_validated(self):
        with pytest.raises(ValueError):
            TrajectoryModel().observe(np.array([1.0, 2.0, 3.0]))

    def test_last_point_cannot_change_under_the_model(self):
        model = TrajectoryModel()
        # A writable array (or a view of one) is copied ...
        point = np.array([1.0, 2.0])
        model.observe(point)
        point[0] = 99.0
        assert model.last_point.tolist() == [1.0, 2.0]
        backing = np.array([[3.0, 4.0]])
        view = backing[0]
        view.flags.writeable = False
        model.observe(view)
        backing[0, 0] = 99.0
        assert model.last_point.tolist() == [3.0, 4.0]
        # ... an owned read-only one is the period's shared copy: kept.
        frozen = np.array([5.0, 6.0])
        frozen.flags.writeable = False
        model.observe(frozen)
        assert model.last_point is frozen
        with pytest.raises(ValueError):
            model.last_point[0] = 0.0
        assert model.distances.samples.tolist() == [np.hypot(2.0, 2.0)] * 2

    def test_ready_needs_min_steps(self):
        model = TrajectoryModel()
        points = [np.array([0.0, 0.0]), np.array([0.1, 0.0]),
                  np.array([0.2, 0.0]), np.array([0.3, 0.0])]
        for point in points:
            model.observe(point)
        assert model.ready(3)
        assert not model.ready(4)


class TestForecasting:
    def make_trained_model(self, rng, bias=0.0):
        # 300-point biased walk: von Mises headings, ~N(0.05, 0.01) steps.
        angles = rng.vonmises(bias, 6.0, size=299)
        lengths = np.maximum(0.0, rng.normal(0.05, 0.01, size=299))
        steps = lengths[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        track = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
        model = TrajectoryModel()
        for point in track:
            model.observe(point)
        return model

    def test_candidate_shape(self, rng):
        model = self.make_trained_model(rng)
        candidates = model.predict_candidates(np.array([1.0, 1.0]), rng, n=5)
        assert candidates.shape == (5, 2)

    def test_candidates_respect_step_scale(self, rng):
        model = self.make_trained_model(rng)
        current = np.array([0.0, 0.0])
        candidates = model.predict_candidates(current, rng, n=200)
        distances = np.linalg.norm(candidates, axis=1)
        # Step lengths were ~N(0.05, 0.01): candidates stay in that scale.
        assert distances.mean() == pytest.approx(0.05, abs=0.02)
        assert distances.max() < 0.2

    def test_candidates_follow_learned_bias(self, rng):
        model = self.make_trained_model(rng, bias=0.0)  # eastward walk
        candidates = model.predict_candidates(np.zeros(2), rng, n=200)
        assert candidates[:, 0].mean() > 0.02  # mostly east of origin

    def test_sample_count_validated(self, rng):
        model = self.make_trained_model(rng)
        with pytest.raises(ValueError):
            model.sample_steps(rng, 0)

    def test_current_shape_validated(self, rng):
        model = self.make_trained_model(rng)
        with pytest.raises(ValueError):
            model.predict_candidates(np.zeros(3), rng)

    def test_mean_step_length(self, rng):
        model = self.make_trained_model(rng)
        assert model.mean_step_length() == pytest.approx(0.05, abs=0.02)
        assert TrajectoryModel().mean_step_length() == 0.0
