"""Unit tests for the mapping pipeline."""

import numpy as np
import pytest

from repro.core.mapping import MappingPipeline
from repro.core.state_space import StateLabel, StateSpace
from repro.monitoring.normalize import CapacityNormalizer


def make_pipeline(dimension=4, epsilon=0.05):
    normalizer = CapacityNormalizer([1.0] * dimension, vm_count=1)
    return MappingPipeline(normalizer, StateSpace(epsilon=epsilon))


class TestMappingPipeline:
    def test_first_sample(self):
        pipeline = make_pipeline()
        sample = pipeline.map_measurement(0, np.array([0.1, 0.2, 0.3, 0.4]), False)
        assert sample.state_index == 0
        assert sample.is_new_state
        assert sample.label is StateLabel.SAFE
        assert pipeline.history[-1] is sample

    def test_violation_labelling(self):
        pipeline = make_pipeline()
        pipeline.map_measurement(0, np.array([0.1, 0.1, 0.1, 0.1]), False)
        sample = pipeline.map_measurement(1, np.array([0.9, 0.9, 0.9, 0.9]), True)
        assert sample.label is StateLabel.VIOLATION

    def test_similar_samples_share_state(self):
        pipeline = make_pipeline(epsilon=0.1)
        a = pipeline.map_measurement(0, np.array([0.5, 0.5, 0.5, 0.5]), False)
        b = pipeline.map_measurement(1, np.array([0.51, 0.5, 0.5, 0.5]), False)
        assert a.state_index == b.state_index
        assert not b.is_new_state
        np.testing.assert_allclose(a.coords, b.coords)

    def test_history_and_trajectory(self):
        # The mapped trajectory is the history's coordinates, oldest first.
        pipeline = make_pipeline(epsilon=0.01)
        values = [
            np.array([0.1, 0.1, 0.1, 0.1]),
            np.array([0.5, 0.5, 0.5, 0.5]),
            np.array([0.9, 0.9, 0.9, 0.9]),
        ]
        mapped = [
            pipeline.map_measurement(tick, value, False)
            for tick, value in enumerate(values)
        ]
        assert len(pipeline.history) == 3
        assert all(a is b for a, b in zip(pipeline.history, mapped))
        assert [sample.tick for sample in pipeline.history] == [0, 1, 2]
        track = np.vstack([sample.coords for sample in pipeline.history])
        assert track.shape == (3, 2)
        assert np.isfinite(track).all()

    def test_empty_trajectory(self):
        assert make_pipeline().history == []

    def test_trajectory_keeps_pre_refit_coords(self):
        # A full SMACOF refit moves every representative; the recorded
        # trajectory must keep the coordinates each sample was mapped
        # at, not silently adopt the new geometry.
        normalizer = CapacityNormalizer([1.0] * 4, vm_count=1)
        space = StateSpace(epsilon=0.01)
        space.refit_interval = 3
        pipeline = MappingPipeline(normalizer, space)
        rng = np.random.default_rng(7)
        refit_seen = False
        for tick in range(12):
            sample = pipeline.map_measurement(tick, rng.random(4), False)
            refit_seen = refit_seen or sample.refitted
        assert refit_seen, "refit_interval=3 should have triggered a refit"
        # At least one pre-refit sample's recorded coords must differ
        # from the state space's current (post-refit) geometry.
        current = pipeline.state_space.coords
        moved = any(
            not np.allclose(s.coords, current[s.state_index])
            for s in pipeline.history
        )
        assert moved, "refit left every historical coordinate untouched"

    def test_dedup_hit_rate(self):
        pipeline = make_pipeline(epsilon=0.2)
        assert pipeline.dedup_hit_rate() == 0.0
        pipeline.map_measurement(0, np.array([0.5, 0.5, 0.5, 0.5]), False)
        pipeline.map_measurement(1, np.array([0.51, 0.5, 0.5, 0.5]), False)
        pipeline.map_measurement(2, np.array([0.9, 0.1, 0.9, 0.1]), False)
        assert pipeline.dedup_hit_rate() == pytest.approx(1 / 3)

    def test_normalization_applied_before_dedup(self):
        # Raw values far apart but normalizing maps them within epsilon.
        normalizer = CapacityNormalizer([10000.0], vm_count=1)
        pipeline = MappingPipeline(normalizer, StateSpace(epsilon=0.05))
        a = pipeline.map_measurement(0, np.array([100.0]), False)
        b = pipeline.map_measurement(1, np.array([200.0]), False)
        assert a.state_index == b.state_index  # 0.01 vs 0.02 in [0,1]
