"""Unit tests for the representative-sample set."""

import numpy as np
import pytest

from repro.mds.dedup import RepresentativeSet


class TestRepresentativeSet:
    def test_first_sample_is_new(self):
        reps = RepresentativeSet(epsilon=0.1)
        index, is_new = reps.assign(np.array([0.5, 0.5]))
        assert index == 0 and is_new
        assert len(reps) == 1

    def test_nearby_sample_merges(self):
        reps = RepresentativeSet(epsilon=0.1)
        reps.assign(np.array([0.5, 0.5]))
        index, is_new = reps.assign(np.array([0.55, 0.5]))
        assert index == 0 and not is_new
        assert len(reps) == 1
        assert reps.counts[0] == 2

    def test_distant_sample_opens_new_ball(self):
        reps = RepresentativeSet(epsilon=0.1)
        reps.assign(np.array([0.0, 0.0]))
        index, is_new = reps.assign(np.array([1.0, 1.0]))
        assert index == 1 and is_new
        assert len(reps) == 2

    def test_merge_uses_nearest_representative(self):
        reps = RepresentativeSet(epsilon=0.2)
        reps.assign(np.array([0.0, 0.0]))
        reps.assign(np.array([1.0, 0.0]))
        index, is_new = reps.assign(np.array([0.9, 0.0]))
        assert index == 1 and not is_new

    def test_boundary_distance_merges(self):
        reps = RepresentativeSet(epsilon=0.1)
        reps.assign(np.array([0.0]))
        _, is_new = reps.assign(np.array([0.1]))
        assert not is_new  # <= epsilon merges

    def test_epsilon_zero_only_merges_identical(self):
        reps = RepresentativeSet(epsilon=0.0)
        reps.assign(np.array([1.0]))
        _, identical_new = reps.assign(np.array([1.0]))
        _, close_new = reps.assign(np.array([1.0 + 1e-6]))
        assert not identical_new
        assert close_new

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            RepresentativeSet(epsilon=-0.1)

    def test_dimension_enforced(self):
        reps = RepresentativeSet(epsilon=0.1)
        reps.assign(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            reps.assign(np.array([0.0, 0.0, 0.0]))

    def test_non_vector_rejected(self):
        with pytest.raises(ValueError):
            RepresentativeSet(epsilon=0.1).assign(np.zeros((2, 2)))

    def test_points_matrix(self):
        reps = RepresentativeSet(epsilon=0.05)
        reps.assign(np.array([0.0, 0.0]))
        reps.assign(np.array([1.0, 0.0]))
        assert reps.points.shape == (2, 2)

    def test_nearest_on_empty_raises(self):
        with pytest.raises(RuntimeError):
            RepresentativeSet(epsilon=0.1).nearest(np.array([0.0]))

    def test_distances_from(self):
        reps = RepresentativeSet(epsilon=0.01)
        reps.assign(np.array([0.0, 0.0]))
        reps.assign(np.array([3.0, 4.0]))
        np.testing.assert_allclose(
            reps.distances_from(np.array([0.0, 0.0])), [0.0, 5.0]
        )
        assert RepresentativeSet(epsilon=0.1).distances_from(np.array([0.0])).size == 0

    def test_compression_ratio(self):
        reps = RepresentativeSet(epsilon=0.5)
        for _ in range(10):
            reps.assign(np.array([0.0]))
        assert len(reps) == 1
        assert reps.compression_ratio() == pytest.approx(10.0)
        assert RepresentativeSet(epsilon=0.1).compression_ratio() == 1.0

    def test_representatives_stay_epsilon_separated(self):
        rng = np.random.default_rng(0)
        reps = RepresentativeSet(epsilon=0.2)
        for _ in range(200):
            reps.assign(rng.uniform(0, 1, size=3))
        points = reps.points
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert np.linalg.norm(points[i] - points[j]) > 0.2


class TestMergeScan:
    """The merge test is the specification itself: global nearest,
    first index on ties, merge when within epsilon."""

    @staticmethod
    def brute_force_assign(points, epsilon, sample):
        """Global nearest, merge when <= epsilon."""
        if points:
            distances = np.linalg.norm(np.vstack(points) - sample, axis=1)
            index = int(np.argmin(distances))
            if distances[index] <= epsilon:
                return index, False
        points.append(sample.copy())
        return len(points) - 1, True

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("epsilon", [0.02, 0.08, 0.25])
    def test_assign_matches_linear_scan(self, dim, epsilon):
        rng = np.random.default_rng(dim * 17 + int(epsilon * 100))
        reps = RepresentativeSet(epsilon=epsilon)
        reference_points = []
        for _ in range(300):
            # Two decimals force frequent near-duplicates and exact ties.
            sample = np.round(rng.uniform(0, 1, size=dim), 2)
            got = reps.assign(sample)
            expected = self.brute_force_assign(reference_points, epsilon, sample)
            assert got == expected

    def test_negative_coordinates_supported(self):
        reps = RepresentativeSet(epsilon=0.1)
        reps.assign(np.array([-0.95, -0.95]))
        index, is_new = reps.assign(np.array([-1.0, -1.0]))
        assert index == 0 and not is_new

    def test_invalidate_index_after_external_replacement(self):
        # Checkpoint restore replaces _points wholesale (same count!)
        # and must call invalidate_index(); the scan then reads the
        # new points, not the cached matrix of the old ones.
        reps = RepresentativeSet(epsilon=0.1)
        reps.assign(np.array([0.0, 0.0]))
        reps.assign(np.array([1.0, 1.0]))
        reps._points = [np.array([5.0, 5.0]), np.array([6.0, 6.0])]
        reps.invalidate_index()
        index, is_new = reps.assign(np.array([5.05, 5.0]))
        assert index == 0 and not is_new
        index, is_new = reps.assign(np.array([0.0, 0.0]))
        assert is_new  # the old origin point is gone

    def test_count_growth_detected_without_hook(self):
        # Defense-in-depth: appending behind the set's back is caught
        # by the matrix cache's row-count check.
        reps = RepresentativeSet(epsilon=0.1)
        reps.assign(np.array([0.0, 0.0]))
        reps.assign(np.array([1.0, 1.0]))
        reps._points.append(np.array([5.0, 5.0]))
        reps._counts.append(1)
        reps._matrix = None
        index, is_new = reps.assign(np.array([5.05, 5.0]))
        assert index == 2 and not is_new

    def test_epsilon_zero_uses_exact_scan(self):
        reps = RepresentativeSet(epsilon=0.0)
        reps.assign(np.array([0.25]))
        _, merged_new = reps.assign(np.array([0.25]))
        assert not merged_new
