"""Unit tests for incremental MDS placement and Procrustes alignment."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.mds.distances import point_distances
from repro.mds import incremental
from repro.mds.incremental import place_point, procrustes_align
from tests.support import placement_reference
from tests.support.placement_reference import (
    lost_to_reference,
    place_point_reference,
    placement_stress,
    random_corpus,
)


class TestPlacePoint:
    def test_exact_placement_in_plane(self):
        rng = np.random.default_rng(0)
        anchors = rng.normal(size=(8, 2))
        true_point = np.array([0.3, -0.2])
        deltas = point_distances(true_point, anchors)
        placed = place_point(anchors, deltas)
        # Distances are realizable, so residual stress should be ~0 and
        # the placement should coincide with the true point.
        assert placement_stress(placed, anchors, deltas) < 1e-10
        np.testing.assert_allclose(placed, true_point, atol=1e-5)

    def test_unrealizable_distances_minimize_stress(self):
        anchors = np.array([[0.0, 0.0], [2.0, 0.0]])
        deltas = np.array([0.5, 0.5])  # impossible: anchors 2 apart
        placed = place_point(anchors, deltas)
        # The optimum is on the segment between the anchors.
        assert 0.0 <= placed[0] <= 2.0
        assert abs(placed[1]) < 1e-6

    def test_single_anchor(self):
        placed = place_point(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.linalg.norm(placed - np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_no_anchors(self):
        np.testing.assert_allclose(place_point(np.empty((0, 2)), np.empty(0)), 0.0)

    def test_negative_deltas_rejected(self):
        with pytest.raises(ValueError):
            place_point(np.zeros((2, 2)), np.array([1.0, -1.0]))

    def test_delta_count_validated(self):
        with pytest.raises(ValueError):
            place_point(np.zeros((3, 2)), np.array([1.0]))

    def test_respects_init(self):
        anchors = np.array([[0.0, 0.0], [4.0, 0.0]])
        deltas = np.array([2.0, 2.0])
        # Two symmetric optima (y = +h and y = -h); init selects one.
        up = place_point(anchors, deltas, init=np.array([2.0, 1.0]))
        down = place_point(anchors, deltas, init=np.array([2.0, -1.0]))
        assert up[1] > 0 > down[1]


class TestProcrustes:
    def test_undoes_rotation_and_translation(self):
        rng = np.random.default_rng(1)
        reference = rng.normal(size=(10, 2))
        theta = 0.7
        rotation = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        config = reference @ rotation.T + np.array([5.0, -3.0])
        aligned, _, _ = procrustes_align(reference, config)
        np.testing.assert_allclose(aligned, reference, atol=1e-9)

    def test_undoes_reflection(self):
        rng = np.random.default_rng(2)
        reference = rng.normal(size=(7, 2))
        config = reference * np.array([1.0, -1.0])  # mirror over x-axis
        aligned, _, _ = procrustes_align(reference, config)
        np.testing.assert_allclose(aligned, reference, atol=1e-9)

    def test_no_scaling_by_default(self):
        rng = np.random.default_rng(3)
        reference = rng.normal(size=(6, 2))
        config = reference * 3.0
        aligned, _, _ = procrustes_align(reference, config)
        # Without scaling the size mismatch must remain.
        ref_spread = np.linalg.norm(reference - reference.mean(axis=0))
        aligned_spread = np.linalg.norm(aligned - aligned.mean(axis=0))
        assert aligned_spread == pytest.approx(3.0 * ref_spread, rel=1e-6)

    def test_scaling_when_allowed(self):
        rng = np.random.default_rng(4)
        reference = rng.normal(size=(6, 2))
        config = reference * 3.0
        aligned, _, _ = procrustes_align(reference, config, allow_scaling=True)
        np.testing.assert_allclose(aligned, reference, atol=1e-9)

    def test_returns_usable_transform(self):
        rng = np.random.default_rng(5)
        reference = rng.normal(size=(5, 2))
        config = rng.normal(size=(5, 2))
        aligned, rotation, translation = procrustes_align(reference, config)
        np.testing.assert_allclose(config @ rotation + translation, aligned, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_inputs_honor_dimensionality(self):
        # Regression: the empty branch hard-coded np.zeros(2) and a
        # 2-guessing identity regardless of the actual column count.
        for dim in (1, 2, 3, 5):
            aligned, rotation, translation = procrustes_align(
                np.empty((0, dim)), np.empty((0, dim))
            )
            assert aligned.shape == (0, dim)
            np.testing.assert_array_equal(rotation, np.eye(dim))
            np.testing.assert_array_equal(translation, np.zeros(dim))

    def test_empty_transform_composes_with_full_dim_data(self):
        _, rotation, translation = procrustes_align(
            np.empty((0, 3)), np.empty((0, 3))
        )
        point = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(point @ rotation + translation, point)


class TestPlacePointEdgeCases:
    def test_no_anchors_honors_init(self):
        # Regression: init was silently ignored for tiny anchor sets.
        init = np.array([3.0, -1.0])
        np.testing.assert_allclose(
            place_point(np.empty((0, 2)), np.empty(0), init=init), init
        )

    def test_no_anchors_honors_dimension(self):
        placed = place_point(np.empty((0, 3)), np.empty(0))
        np.testing.assert_allclose(placed, np.zeros(3))

    def test_single_anchor_honors_init_direction(self):
        anchor = np.array([[1.0, 1.0]])
        deltas = np.array([2.0])
        init = np.array([1.0, 5.0])  # straight up from the anchor
        placed = place_point(anchor, deltas, init=init)
        np.testing.assert_allclose(placed, np.array([1.0, 3.0]), atol=1e-12)
        # Distance constraint holds exactly.
        assert np.linalg.norm(placed - anchor[0]) == pytest.approx(2.0)

    def test_single_anchor_init_on_anchor_falls_back(self):
        anchor = np.array([[1.0, 1.0]])
        placed = place_point(anchor, np.array([2.0]), init=np.array([1.0, 1.0]))
        np.testing.assert_allclose(placed, np.array([3.0, 1.0]))

    def test_single_anchor_default_unchanged(self):
        # Without init the legacy deterministic +x placement remains.
        placed = place_point(np.array([[1.0, 1.0]]), np.array([2.0]))
        np.testing.assert_allclose(placed, np.array([3.0, 1.0]))


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class TestPlacePointInputValidation:
    """Regressions: bad input used to end in an ``assert`` or a broadcast error."""

    @pytest.mark.parametrize("place", [place_point, place_point_reference])
    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_deltas_rejected(self, place, poison):
        # Was: every start's stress NaN -> AssertionError (None under -O).
        with pytest.raises(ValueError, match="deltas"):
            place(SQUARE, np.array([0.1, poison, 0.2, 0.3]))

    @pytest.mark.parametrize("place", [place_point, place_point_reference])
    def test_non_finite_anchors_rejected(self, place):
        anchors = SQUARE.copy()
        anchors[2, 1] = np.nan
        with pytest.raises(ValueError, match="anchors"):
            place(anchors, np.full(4, 0.5))

    @pytest.mark.parametrize("place", [place_point, place_point_reference])
    def test_non_finite_init_rejected(self, place):
        with pytest.raises(ValueError, match="init"):
            place(SQUARE, np.full(4, 0.5), init=np.array([0.0, np.nan]))

    def test_poisoned_single_anchor_rejected(self):
        # The closed forms used to hand the NaN straight back as coordinates.
        with pytest.raises(ValueError, match="anchors"):
            place_point(np.array([[np.nan, 0.0]]), np.array([1.0]))

    @pytest.mark.parametrize("place", [place_point, place_point_reference])
    def test_multi_anchor_map_must_be_planar(self, place):
        # Was: "operands could not be broadcast together with shapes (3,) (2,)".
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            place(np.zeros((3, 3)), np.ones(3))

    def test_init_shape_validated(self):
        with pytest.raises(ValueError, match="init"):
            place_point(SQUARE, np.full(4, 0.5), init=np.zeros(3))

    def test_overflowing_targets_rejected(self):
        # Finite input whose squares overflow: no start has a finite stress.
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            place_point(SQUARE, np.full(4, 1e200))


class TwoMinima:
    """Nine anchors whose stress has a global and a local minimum.

    ``best`` (stress ≈ 2.90) is where the centroid descends to, ``local``
    (≈ 7.46) where a start far to the lower right does; both are
    descended with ``tol = 0`` so a start placed on either settles on
    its first step.
    """

    TOL = 1e-9

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        self.anchors = rng.normal(size=(9, 2))
        self.deltas = np.linalg.norm(rng.normal(size=(9, 5)), axis=1)
        self.frame = incremental._AnchorFrame(1, self.anchors, self.deltas)
        self.best, self.best_stress = self.converged(self.anchors.mean(axis=0))
        self.local, self.local_stress = self.converged(self.best + np.array([40.0, -25.0]))
        assert self.best_stress < self.local_stress

    def converged(self, start):
        placed, stress = incremental._descend(start[None, :], self.anchors, self.deltas, 400, 0.0)
        return placed[0], stress[0]

    def alone(self, start, steps=100):
        placed, stress = incremental._descend(
            start[None, :], self.anchors, self.deltas, steps, self.TOL
        )
        return placed[0], stress[0]

    def stacked(self, *starts):
        return incremental._descend(np.stack(starts), self.anchors, self.deltas, 100, self.TOL)

    def floors(self, start):
        """The model floor after each iteration ``start`` takes alone."""
        end = self.alone(start)[0]
        floors = []
        for steps in range(1, 100):
            x = self.alone(start, steps)[0]
            raw = self.frame.evaluate(x[None, :])[0]
            floors.append(incremental._model_floor(self.frame.score(raw)))
            if np.array_equal(x, end):
                break
        return floors


class TestPlacementKernel:
    """The batched damped descent against the scalar optimiser it replaced."""

    def test_a_settled_start_stays_frozen(self):
        case = TwoMinima()
        toward_best = np.array([-3.0, 2.0])
        # The scenario is what it claims: ``local`` settles on its first
        # step, the other start is still moving after it.
        assert np.array_equal(case.alone(case.local, 1)[0], case.alone(case.local)[0])
        assert len(case.floors(toward_best)) > 1
        placed, stress = case.stacked(case.local, toward_best)
        assert np.array_equal(placed[0], case.local)
        assert stress[0] == case.alone(case.local)[1] == case.local_stress

    def test_a_start_whose_floor_stays_below_the_settled_stress_ends_where_it_ends_alone(self):
        case = TwoMinima()
        toward_best = np.array([-3.0, 2.0])
        assert all(floor < case.local_stress for floor in case.floors(toward_best))
        placed, stress = case.stacked(case.local, toward_best)
        expected, expected_stress = case.alone(toward_best)
        assert np.array_equal(placed[1], expected)
        assert stress[1] == expected_stress == placement_stress(
            expected, case.anchors, case.deltas
        )
        # ... and wins: it ends in the global minimum.
        assert np.allclose(expected, case.best, atol=1e-7)

    def test_a_start_stops_in_the_first_iteration_its_floor_is_not_below_the_settled_stress(
        self,
    ):
        case = TwoMinima()
        start = np.array([-2.0, 0.0])
        floors = case.floors(start)
        first = next(k for k, floor in enumerate(floors, 1) if not floor < case.best_stress)
        # Not below only after its first step, and alone it moves on.
        assert 1 < first < len(floors)
        placed, stress = case.stacked(case.best, start)
        expected, expected_stress = case.alone(start, first)
        assert np.array_equal(placed[1], expected)
        assert stress[1] == expected_stress
        assert not np.array_equal(expected, case.alone(start)[0])
        assert np.array_equal(placed[0], case.best)

    def test_a_start_settled_on_a_saddle_stops_no_other(self):
        # Instance 4786 of the 6 000, collinear anchors: the centroid
        # start lies on their line and settles on the saddle there, just
        # above the two mirror minima off it. Were the saddle counted as
        # settled, every other start would stop short of those minima.
        kind, anchors, deltas = next(itertools.islice(random_corpus(2000), 4786, None))
        assert kind == "collinear"
        centroid = incremental._multi_starts(anchors, deltas)[5:6]
        saddle, saddle_stress = incremental._descend(centroid, anchors, deltas, 100, 1e-9)
        frame = incremental._AnchorFrame(1, anchors, deltas)
        assert not frame.score(frame.evaluate(saddle)[0])[6]  # H is not positive definite
        placed = place_point(anchors, deltas)
        assert placement_stress(placed, anchors, deltas) < saddle_stress[0]
        assert lost_to_reference(placed, anchors, deltas) is None

    @pytest.mark.parametrize(
        "anchors",
        [
            SQUARE,  # both diagonals tie
            np.stack(np.meshgrid(np.arange(5.0), np.arange(4.0)), -1).reshape(-1, 2),
            np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0)), -1).reshape(-1, 2) * 0.1,
            # regular 12-gon: six diameters tie up to rounding
            np.stack(
                [np.cos(np.arange(12) * np.pi / 6), np.sin(np.arange(12) * np.pi / 6)], -1
            ),
            np.zeros((5, 2)),  # all coincident: no pair at all
        ],
        ids=["square", "grid5x4", "grid6x6-tenths", "dodecagon", "coincident"],
    )
    def test_widest_pair_tie_break_matches_nested_scan(self, anchors):
        # The kernel is only comparable to the reference from the same
        # starts, so the widest pair must be the one its scan keeps.
        rotation = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        for config in (anchors, anchors @ rotation.T, anchors[::-1]):
            deltas = np.linalg.norm(config - np.array([0.37, 0.21]), axis=1)
            batched = incremental._trilateration_starts(config, deltas)
            scanned = placement_reference._trilateration_starts_reference(config, deltas)
            assert len(batched) == len(scanned)
            for ours, theirs in zip(batched, scanned):
                assert np.array_equal(ours, theirs)
            assert lost_to_reference(place_point(config, deltas), config, deltas) is None

    def test_a_singular_step_system_is_rejected_not_raised(self, monkeypatch):
        # A Python float division by zero raises where the array
        # kernel's quotient was +-inf or NaN: a row whose 2x2 system is
        # singular must take that step, see it fail, and stay put.
        score = incremental._AnchorFrame.score

        def singular(frame, raw):
            stress, g0, g1, *_ = score(frame, raw)
            return stress, g0, g1, 0.0, frame.count, 0.0, False  # (0 + n)(0 + n) - n * n

        monkeypatch.setattr(incremental._AnchorFrame, "score", singular)
        start = np.array([[0.3, 0.2]])
        with np.errstate(all="ignore"):
            placed, stress = incremental._descend(start, SQUARE, np.full(4, 0.5), 1, 1e-9)
        assert np.array_equal(placed, start)
        assert stress[0] == placement_stress(start[0], SQUARE, np.full(4, 0.5))

    def test_row_norms_match_linalg_norm_bitwise(self):
        # BLAS dot fuses the multiply-add; a square-and-sum does not.
        rows = np.random.default_rng(3).normal(size=(4000, 2))
        expected = np.array([np.linalg.norm(row) for row in rows])
        assert np.array_equal(incremental._row_norms(rows), expected)

    def test_rejected_step_is_retried_not_frozen(self):
        """Regression: the Gauss-Newton polish froze a start on its
        first rejected step, 1.8e-5 in stress above an optimum 0.08 map
        units away that a shorter step from the same point reaches."""
        case = json.loads(
            (Path(placement_reference.__file__).parent / "stuck_polish_case.json").read_text()
        )
        anchors, deltas = np.array(case["anchors"]), np.array(case["deltas"])
        placed = place_point(anchors, deltas)
        stuck = place_point_reference(anchors, deltas)
        assert placement_stress(placed, anchors, deltas) < (
            placement_stress(stuck, anchors, deltas) - 1.7e-5
        )
        assert 0.07 < np.linalg.norm(placed - stuck) < 0.09
        # The oracle would not have excused it as another minimum.
        assert "on a slope" in lost_to_reference(stuck, anchors, deltas, init=stuck)


class TestPlacementPrepEqualities:
    """The placement's input prep without NumPy's wrappers gives the
    same bits as the spelling it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 64, 250])
    def test_centroid_equals_mean(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-9, 1.0, 1e6):
            anchors = rng.normal(size=(n, 2)) * scale
            centroid = np.add.reduce(anchors, axis=0) / n
            assert centroid.tobytes() == anchors.mean(axis=0).tobytes()

    def test_centroid_start_is_the_mean(self):
        rng = np.random.default_rng(4)
        for n in range(2, 60):
            # Magnitudes spread over decades, so any other summation
            # order rounds differently somewhere.
            anchors = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
            deltas = rng.uniform(0.0, 2.0, size=n)
            starts = incremental._multi_starts(anchors, deltas)
            assert starts[5].tobytes() == anchors.mean(axis=0).tobytes()

    def test_placement_deltas_equal_the_old_rescan(self, monkeypatch):
        """A new state is placed against the scan that opened it: the
        distances a second scan over the grown set gave, minus the new
        row (the old ``distances_from(sample)[:-1]``)."""
        from repro.core import state_space as state_space_module

        placed = []

        def recording(anchors, deltas, *args, **kwargs):
            placed.append(deltas.copy())
            return place_point(anchors, deltas, *args, **kwargs)

        monkeypatch.setattr(state_space_module, "place_point", recording)
        space = state_space_module.StateSpace(epsilon=0.05)
        space.refit_interval = 15
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(300):
            sample = np.round(rng.uniform(0.0, 1.0, size=10), 1)
            calls = len(placed)
            _, is_new, _ = space.add_sample(sample, violated=False)
            if is_new and len(placed) > calls:
                rescan = point_distances(sample, space.representatives.points)[:-1]
                assert placed[-1].tobytes() == rescan.tobytes()
                checked += 1
        assert checked > 30
