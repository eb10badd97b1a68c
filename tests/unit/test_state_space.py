"""Unit tests for the state space and violation-range geometry."""

import numpy as np
import pytest

from repro.core.state_space import StateLabel, StateSpace, violation_range_radius
from tests.support.geometry_reference import in_range


class TestViolationRangeRadius:
    def test_zero_distance(self):
        assert violation_range_radius(0.0, 1.0) == 0.0

    def test_zero_scale(self):
        assert violation_range_radius(1.0, 0.0) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            violation_range_radius(-1.0, 1.0)

    def test_peak_at_d_equals_c(self):
        # R(d) = d exp(-d^2/2c^2) peaks at d = c (Rayleigh mode).
        c = 0.7
        peak = violation_range_radius(c, c)
        assert peak == pytest.approx(c * np.exp(-0.5))
        assert violation_range_radius(0.5 * c, c) < peak
        assert violation_range_radius(2.0 * c, c) < peak

    def test_fades_at_large_distance(self):
        assert violation_range_radius(100.0, 1.0) < 1e-6

    def test_radius_below_distance(self):
        # The range never swallows the nearest safe state.
        for d in [0.1, 0.5, 1.0, 2.0, 5.0]:
            assert violation_range_radius(d, 1.0) < d

    def test_matches_formula(self):
        d, c = 0.8, 0.6
        expected = d * np.exp(-(d**2) / (2 * c**2))
        assert violation_range_radius(d, c) == pytest.approx(expected)


def grow_space(samples, violations=frozenset(), epsilon=0.05):
    """Build a state space from a list of high-dim samples."""
    space = StateSpace(epsilon=epsilon, refit_interval=1000)
    for i, sample in enumerate(samples):
        space.add_sample(np.asarray(sample, float), violated=i in violations)
    return space


class TestAddSample:
    def test_first_sample_at_origin(self):
        space = grow_space([[0.2, 0.2, 0.2]])
        assert len(space) == 1
        np.testing.assert_allclose(space.coords[0], 0.0)
        assert space.labels[0] is StateLabel.SAFE

    def test_merge_reuses_state(self):
        space = StateSpace(epsilon=0.1)
        index_a, new_a, _ = space.add_sample(np.array([0.5, 0.5]), violated=False)
        index_b, new_b, _ = space.add_sample(np.array([0.52, 0.5]), violated=False)
        assert index_a == index_b
        assert new_a and not new_b
        assert len(space) == 1

    def test_violation_label_applied(self):
        space = grow_space([[0.0, 0.0], [1.0, 1.0]], violations={1})
        assert space.labels[1] is StateLabel.VIOLATION
        assert space.violation_indices.tolist() == [1]
        assert space.safe_indices.tolist() == [0]

    def test_violation_label_sticky(self):
        space = StateSpace(epsilon=0.1)
        space.add_sample(np.array([0.5, 0.5]), violated=True)
        space.add_sample(np.array([0.5, 0.5]), violated=False)
        assert space.labels[0] is StateLabel.VIOLATION

    def test_safe_state_can_become_violation(self):
        space = StateSpace(epsilon=0.1)
        space.add_sample(np.array([0.5, 0.5]), violated=False)
        space.add_sample(np.array([0.5, 0.5]), violated=True)
        assert space.labels[0] is StateLabel.VIOLATION

    def test_distance_geometry_preserved(self):
        # Three samples on a line in high-dim: 2-D distances must match.
        space = grow_space([[0.0, 0.0], [0.3, 0.0], [0.9, 0.0]], epsilon=0.01)
        d01 = np.linalg.norm(space.coords[0] - space.coords[1])
        d02 = np.linalg.norm(space.coords[0] - space.coords[2])
        assert d01 == pytest.approx(0.3, abs=0.02)
        assert d02 == pytest.approx(0.9, abs=0.05)


class TestRefit:
    def test_refit_triggers_on_interval(self):
        space = StateSpace(epsilon=0.001, refit_interval=5)
        refit_seen = False
        rng = np.random.default_rng(0)
        for _ in range(12):
            _, _, refitted = space.add_sample(rng.uniform(0, 1, 4), violated=False)
            refit_seen = refit_seen or refitted
        assert refit_seen
        assert space.refit_count >= 2

    def test_refit_reduces_or_keeps_stress(self):
        rng = np.random.default_rng(1)
        space = StateSpace(epsilon=0.001, refit_interval=1000)
        for _ in range(25):
            space.add_sample(rng.uniform(0, 1, 6), violated=False)
        before = space.stress()
        space.refit()
        after = space.stress()
        assert after <= before + 1e-9

    def test_refit_preserves_orientation(self):
        # Procrustes alignment: coordinates stay near their pre-refit
        # positions rather than arbitrarily rotating.
        rng = np.random.default_rng(2)
        space = StateSpace(epsilon=0.001, refit_interval=1000)
        for _ in range(20):
            space.add_sample(rng.uniform(0, 1, 3), violated=False)
        before = space.coords.copy()
        space.refit()
        displacement = np.linalg.norm(space.coords - before, axis=1).mean()
        spread = np.linalg.norm(before - before.mean(axis=0), axis=1).mean()
        assert displacement < spread  # far smaller than a random rotation

    def test_small_space_refit_noop(self):
        space = StateSpace()
        space.add_sample(np.array([0.5]), violated=False)
        assert space.refit() == 0.0


class TestViolationRanges:
    def test_coordinate_scale(self):
        space = grow_space([[0.0, 0.0], [1.0, 0.0]], epsilon=0.01)
        assert space.coordinate_scale() > 0
        empty = StateSpace()
        assert empty.coordinate_scale() == 0.0

    def test_ranges_exist_per_violation(self):
        space = grow_space(
            [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], violations={2}, epsilon=0.01
        )
        ranges = space.violation_ranges()
        assert len(ranges) == 1
        center, radius = ranges[0]
        np.testing.assert_allclose(center, space.coords[2])
        assert radius > 0

    def test_no_safe_states_fallback_radius(self):
        space = grow_space([[0.0, 0.0], [1.0, 1.0]], violations={0, 1}, epsilon=0.01)
        for _, radius in space.violation_ranges():
            assert radius > 0

    def test_in_violation_range_detects_center(self):
        space = grow_space(
            [[0.0, 0.0], [1.0, 0.0]], violations={1}, epsilon=0.01
        )
        assert in_range(space, space.coords[1])
        assert not in_range(space, space.coords[0])

    def test_nearby_unseen_point_inside_range(self):
        space = grow_space(
            [[0.0, 0.0], [1.0, 0.0]], violations={1}, epsilon=0.01
        )
        _, radius = space.violation_ranges()[0]
        probe = space.coords[1] + np.array([radius * 0.5, 0.0])
        assert in_range(space, probe)

    def test_no_violations_nothing_in_range(self):
        space = grow_space([[0.0, 0.0], [1.0, 0.0]], epsilon=0.01)
        assert not in_range(space, np.array([0.0, 0.0]))

    def test_closer_safe_state_shrinks_range(self):
        # Same violation, but a nearby safe state in the second space.
        far = grow_space([[0.0, 0.0], [1.0, 0.0]], violations={1}, epsilon=0.01)
        near = grow_space(
            [[0.0, 0.0], [0.9, 0.0], [1.0, 0.0]], violations={2}, epsilon=0.01
        )
        _, far_radius = far.violation_ranges()[0]
        _, near_radius = near.violation_ranges()[0]
        assert near_radius < far_radius

    def test_violation_vote(self):
        space = grow_space(
            [[0.0, 0.0], [1.0, 0.0]], violations={1}, epsilon=0.01
        )
        candidates = np.vstack([space.coords[1], space.coords[0]])
        assert space.violation_vote(candidates) == 1
        with pytest.raises(ValueError):
            space.violation_vote(np.zeros(2))
