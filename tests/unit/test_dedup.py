"""Unit tests for the representative-sample set."""

import numpy as np
import pytest

from repro.mds.dedup import RepresentativeSet
from repro.mds.distances import point_distances


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

    def test_a_set_without_dimension_takes_its_width_from_the_first_sample(self):
        reps = RepresentativeSet(epsilon=0.1)
        assert reps.points.shape == (0, 0)
        assert reps.assign(np.array([0.0, 1.0, 2.0])) == (0, True)
        assert reps.points.shape == (1, 3)
        assert reps.assign(np.array([5.0, 5.0, 5.0])) == (1, True)
        assert _bits(reps.points) == _bits(np.array([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]]))
        assert RepresentativeSet(epsilon=0.1, dimension=3).points.shape == (0, 3)

    def test_points_matrix(self):
        reps = RepresentativeSet(epsilon=0.05)
        reps.assign(np.array([0.0, 0.0]))
        reps.assign(np.array([1.0, 0.0]))
        assert reps.points.shape == (2, 2)

    def test_nearest_on_empty_raises(self):
        with pytest.raises(RuntimeError):
            RepresentativeSet(epsilon=0.1).nearest(np.array([0.0]))

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

    def test_epsilon_zero_uses_exact_scan(self):
        reps = RepresentativeSet(epsilon=0.0)
        reps.assign(np.array([0.25]))
        _, merged_new = reps.assign(np.array([0.25]))
        assert not merged_new


def _bits(array):
    return np.asarray(array, dtype=float).tobytes()


def filled(rows):
    """A set holding ``rows`` as its representatives, in order."""
    reps = RepresentativeSet(epsilon=0.0)
    for row in rows:
        _, is_new = reps.assign(np.asarray(row, dtype=float))
        assert is_new
    return reps


class TestScanEqualsPointDistances:
    """The scan is ``point_distances`` then ``np.argmin``, bit for bit."""

    @staticmethod
    def assert_same_scan(reps, rows, sample):
        """``rows``: the test's own copy of the samples ``reps`` holds."""
        reference = point_distances(sample, np.vstack(rows))
        index, distance = reps.nearest(sample)
        assert _bits(reps.last_distances) == _bits(reference)
        assert index == int(np.argmin(reference))
        assert type(index) is int and type(distance) is float
        assert _bits(distance) == _bits(reference[index])

    @pytest.mark.parametrize("n, dim", [(1, 3), (7, 10), (70, 10), (250, 13)])
    def test_random_inputs(self, n, dim):
        rng = np.random.default_rng(n * 31 + dim)
        rows = rng.uniform(0.0, 1.0, size=(n, dim))
        reps = filled(rows)
        for _ in range(20):
            self.assert_same_scan(reps, rows, rng.uniform(-0.5, 1.5, size=dim))

    def test_a_sample_equal_to_a_representative(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.0, 1.0, size=(12, 10))
        reps = filled(rows)
        for index in (0, 5, 11):
            self.assert_same_scan(reps, rows, rows[index].copy())
            assert reps.nearest(rows[index].copy()) == (index, 0.0)

    def test_exact_ties_keep_the_first_index(self):
        rows = [[3.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
        reps = filled(rows)
        self.assert_same_scan(reps, rows, np.array([0.0, 0.0]))
        assert reps.nearest(np.array([0.0, 0.0])) == (1, 1.0)
        # A sample on the merge radius of both tied representatives
        # joins the first.
        reps.epsilon = 1.0
        assert reps.assign(np.array([0.0, 0.0])) == (1, False)

    def test_a_one_row_set(self):
        rows = [[0.25, 0.5, 0.75]]
        reps = filled(rows)
        self.assert_same_scan(reps, rows, np.array([1.0, 1.0, 1.0]))
        assert reps.nearest(np.array([0.25, 0.5, 0.75])) == (0, 0.0)

    def test_assign_keeps_the_scan_a_new_state_is_placed_against(self):
        rng = np.random.default_rng(11)
        reps = RepresentativeSet(epsilon=0.3)
        rows = [rng.uniform(0.0, 1.0, size=4)]
        reps.assign(rows[0])
        assert reps.last_distances.size == 0  # the set was empty
        for _ in range(60):
            sample = rng.uniform(0.0, 1.0, size=4)
            before = np.vstack(rows)
            index, is_new = reps.assign(sample)
            assert _bits(reps.last_distances) == _bits(point_distances(sample, before))
            assert index == len(before) or index == int(np.argmin(reps.last_distances))
            if is_new:
                rows.append(sample)
        # A set emptied after a scan scans nothing for its next sample.
        reps.clear()
        assert reps.assign(rng.uniform(0.0, 1.0, size=4)) == (0, True)
        assert reps.last_distances.size == 0


class TestGrowthBuffer:
    """``points`` is the set's only copy of its rows: it grows into spare
    rows, compacts in place, and keeps every write made into it."""

    @staticmethod
    def assert_holds(reps, rows):
        """``rows``: the test's own copy of the samples ``reps`` holds."""
        assert _bits(reps.points) == _bits(np.vstack(rows))
        assert reps.points.flags.c_contiguous

    def test_appends_past_the_reserved_rows(self):
        rng = np.random.default_rng(2)
        reps = RepresentativeSet(epsilon=0.0)
        rows = []
        for _ in range(100):
            rows.append(rng.uniform(0.0, 1.0, size=5))
            reps.assign(rows[-1])
            self.assert_holds(reps, rows)

    def test_a_new_state_copies_one_row(self, monkeypatch):
        reps = filled(np.eye(4))
        matrix = reps.points
        monkeypatch.setattr(np, "vstack", None)
        reps.assign(np.full(4, 2.0))
        assert np.shares_memory(reps.points, matrix)
        # A matrix read before the append still shows the rows it had.
        assert matrix.shape == (4, 4) and _bits(matrix) == _bits(np.eye(4))

    def test_rebuilt_after_remove_indices(self):
        rows = np.arange(24.0).reshape(8, 3)
        reps = filled(rows)
        matrix = reps.points
        assert reps.remove_indices([0, 5]) == 2
        rows = [row for i, row in enumerate(rows) if i not in (0, 5)]
        self.assert_holds(reps, rows)
        assert np.shares_memory(reps.points, matrix)  # compacted in place
        assert reps.assign(np.array([3.0, 4.0, 5.0])) == (0, False)
        assert reps.assign(np.array([100.0, 0.0, 0.0])) == (6, True)
        self.assert_holds(reps, rows + [np.array([100.0, 0.0, 0.0])])

    def test_rebuilt_after_clear(self):
        reps = filled(np.arange(12.0).reshape(4, 3))
        reps.clear()
        assert reps.points.shape == (0, 3)
        assert reps.assign(np.array([0.0, 1.0, 2.0])) == (0, True)
        assert reps.assign(np.array([9.0, 9.0, 9.0])) == (1, True)
        self.assert_holds(reps, [[0.0, 1.0, 2.0], [9.0, 9.0, 9.0]])

    def test_a_row_written_in_place_survives_growth(self):
        # What ModelPoisoner's nan-representative does: a write into the
        # matrix, and nothing else. Growing past the 17th row must keep it.
        rng = np.random.default_rng(3)
        rows = list(rng.uniform(0.0, 1.0, size=(5, 4)))
        reps = filled(rows)
        reps.points[2, 0] = float("nan")
        rows[2] = rows[2].copy()
        rows[2][0] = float("nan")
        matrix = reps.points
        while len(rows) < 18:
            rows.append(rng.uniform(0.0, 1.0, size=4))
            assert reps.assign(rows[-1]) == (len(rows) - 1, True)
        assert not np.shares_memory(reps.points, matrix)  # it did grow
        assert np.isnan(reps.points[2, 0])
        self.assert_holds(reps, rows)

    def test_a_row_written_in_place_survives_remove_indices(self):
        # Compaction moves a written row down with its write: the NaN at
        # row 3 is at row 2 once row 0 is gone.
        rows = list(np.arange(15.0).reshape(5, 3))
        reps = filled(rows)
        reps.points[3, 1] = float("nan")
        rows[3] = rows[3].copy()
        rows[3][1] = float("nan")
        assert reps.remove_indices([0]) == 1
        del rows[0]
        assert np.isnan(reps.points[2, 1])
        self.assert_holds(reps, rows)
