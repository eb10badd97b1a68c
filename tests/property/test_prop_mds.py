"""Property-based tests for the MDS stack."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mds.classical import classical_mds
from repro.mds.dedup import RepresentativeSet
from repro.mds.distances import pairwise_distances, point_distances
from repro.mds.incremental import (
    _multi_starts,
    place_point,
    procrustes_align,
)
from repro.mds.smacof import smacof
from repro.mds.stress import raw_stress
from tests.support.placement_reference import (
    lost_to_reference,
    placement_stress,
    random_corpus,
)


def point_clouds(min_points=3, max_points=12, dims=4):
    return arrays(
        dtype=float,
        shape=st.tuples(
            st.integers(min_points, max_points), st.just(dims)
        ),
        elements=st.floats(-10.0, 10.0, allow_nan=False),
    )


class TestDistanceProperties:
    @given(point_clouds())
    @settings(max_examples=100)
    def test_symmetry_and_nonnegativity(self, points):
        distances = pairwise_distances(points)
        assert np.all(distances >= 0)
        np.testing.assert_allclose(distances, distances.T, atol=1e-9)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-6)

    @given(point_clouds())
    @settings(max_examples=50)
    def test_triangle_inequality(self, points):
        distances = pairwise_distances(points)
        n = distances.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert distances[i, j] <= distances[i, k] + distances[k, j] + 1e-6

    @given(point_clouds())
    @settings(max_examples=100)
    def test_point_distances_consistent_with_pairwise(self, points):
        full = pairwise_distances(points)
        row = point_distances(points[0], points)
        # The Gram-matrix trick loses a few ulps vs direct subtraction.
        np.testing.assert_allclose(row, full[0], atol=1e-6)


class TestSmacofProperties:
    @given(point_clouds(dims=2))
    @settings(max_examples=40, deadline=None)
    def test_planar_inputs_reach_tiny_stress(self, points):
        target = pairwise_distances(points)
        result = smacof(target, n_components=2)
        scale = float(np.sum(target**2)) + 1e-12
        assert result.stress / scale < 1e-4

    @given(point_clouds(dims=5))
    @settings(max_examples=30, deadline=None)
    def test_smacof_never_worse_than_classical_init(self, points):
        target = pairwise_distances(points)
        init = classical_mds(target, 2)
        result = smacof(target, n_components=2)
        assert result.stress <= raw_stress(init, target) + 1e-9

    @given(point_clouds(dims=3))
    @settings(max_examples=30, deadline=None)
    def test_embedding_shape(self, points):
        result = smacof(pairwise_distances(points), n_components=2)
        assert result.embedding.shape == (points.shape[0], 2)
        assert np.all(np.isfinite(result.embedding))


class TestPlacementProperties:
    @given(
        arrays(float, st.tuples(st.integers(3, 10), st.just(2)),
               elements=st.floats(-5.0, 5.0, allow_nan=False)),
        st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_realizable_targets_recovered(self, anchors, true_xy):
        true_point = np.asarray(true_xy)
        deltas = point_distances(true_point, anchors)
        placed = place_point(anchors, deltas)
        # Residual stress at the returned point never exceeds the
        # residual at the true optimum (which is 0 here) by much.
        residual = np.sum(
            (point_distances(placed, anchors) - deltas) ** 2
        )
        # Degenerate anchor sets (duplicates) slow the majorization;
        # 1e-3 residual on O(1) distances is far below dedup epsilon.
        assert residual < 1e-3


ANCHOR_KINDS = ("random", "collinear", "coincident", "lattice")
DELTA_KINDS = ("realizable", "zero", "unrealizable", "high-dimensional")


def placement_case(seed, n, anchor_kind, delta_kind, with_init):
    """A seeded ``(anchors, deltas, init, target)`` case of the named shape.

    ``target`` is the planar point the realizable deltas were measured
    from, ``None`` for the other delta kinds.
    """
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(n, 2)) * rng.choice([0.01, 1.0, 50.0])
    if anchor_kind == "collinear":
        anchors[:, 1] = 0.5 * anchors[:, 0] + 1.0
    elif anchor_kind == "coincident":
        anchors[n // 2:] = anchors[0]
    elif anchor_kind == "lattice":
        # many exactly tied widest pairs
        anchors = np.stack(np.divmod(np.arange(n), 7), axis=1).astype(float)
    target = None
    if delta_kind == "realizable":
        target = rng.normal(size=2)
        deltas = point_distances(target, anchors)
    elif delta_kind == "zero":
        deltas = np.zeros(n)
    elif delta_kind == "unrealizable":
        deltas = np.abs(rng.normal(size=n)) * 3.0
    else:
        deltas = np.linalg.norm(rng.normal(size=(n, 6)) - rng.normal(size=6), axis=1)
    init = rng.normal(size=2) * 2.0 if with_init else None
    return anchors, deltas, init, target


def seeded_cases(delta_kinds=DELTA_KINDS, inits=st.booleans()):
    return st.builds(
        placement_case,
        st.integers(0, 2**32 - 1),
        st.integers(2, 200),
        st.sampled_from(ANCHOR_KINDS),
        st.sampled_from(delta_kinds),
        inits,
    )


class TestPlacementKernelQuality:
    """``place_point`` never loses to the scalar optimiser it replaced."""

    @given(seeded_cases())
    # A start stopped on its Gauss-Newton model's floor lost here.
    @example(placement_case(160, 41, "lattice", "high-dimensional", False))
    @settings(max_examples=120, deadline=None)
    def test_seeded_anchor_sets(self, case):
        anchors, deltas, init, _ = case
        placed = place_point(anchors, deltas, init=init)
        assert lost_to_reference(placed, anchors, deltas, init) is None
        # same bits on every call: no state survives one
        assert np.array_equal(placed, place_point(anchors, deltas, init=init))

    @given(
        arrays(float, st.tuples(st.integers(2, 9), st.just(2)),
               elements=st.floats(-1e3, 1e3, allow_nan=False)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_small_inputs(self, anchors, data):
        n = anchors.shape[0]
        deltas = data.draw(arrays(float, (n,), elements=st.floats(0.0, 2e3)))
        init = data.draw(
            st.none() | arrays(float, (2,), elements=st.floats(-1e3, 1e3))
        )
        # A start sitting on an anchor has no direction to leave along
        # (both optimisers floor that distance); which way rounding
        # noise then pushes it is not a property of either.
        assume(init is None or point_distances(init, anchors).min() > 1e-9)
        placed = place_point(anchors, deltas, init=init)
        assert lost_to_reference(placed, anchors, deltas, init) is None

    def test_a_seeded_corpus_never_loses(self):
        # The first 300 of the 6 000 instances the early stop of a start
        # was chosen on (see "Placement kernel" in docs/ARCHITECTURE.md).
        losses = [
            (kind, index, verdict)
            for index, (kind, anchors, deltas) in enumerate(random_corpus(100))
            if (verdict := lost_to_reference(place_point(anchors, deltas), anchors, deltas))
        ]
        assert losses == []

    @given(seeded_cases(("realizable",), inits=st.just(False)), st.floats(-1.0, 1.0),
           st.floats(-1.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_realizable_targets_are_recovered_and_follow_a_translation(
        self, case, shift_x, shift_y
    ):
        anchors, deltas, _, target = case
        scale = 1.0 + max(float(np.abs(anchors).max()), float(deltas.max()))
        shift = np.array([shift_x, shift_y]) * scale
        placed = place_point(anchors, deltas)
        moved = place_point(anchors + shift, deltas)
        assert np.abs(point_distances(placed, anchors) - deltas).max() <= 1e-8 * scale
        assert np.abs(point_distances(moved, anchors + shift) - deltas).max() <= 1e-8 * scale
        # Three anchors off one line pin the point itself; fewer (or
        # collinear ones) leave its mirror image just as good.
        centred = anchors - anchors.mean(axis=0)
        if np.linalg.svd(centred, compute_uv=False)[-1] > 1e-3 * scale:
            assert np.linalg.norm(placed - target) <= 1e-8 * scale
            assert np.linalg.norm(moved - shift - placed) <= 1e-7 * scale

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(0, 8),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_iteration_cap_and_loose_tolerance_never_lose_to_the_start(
        self, seed, n, max_iter, with_init
    ):
        anchors, deltas, init, _ = placement_case(
            seed, n, "random", "high-dimensional", with_init
        )
        starts = init[None, :] if with_init else _multi_starts(anchors, deltas)
        best_start = min(placement_stress(start, anchors, deltas) for start in starts)
        for tol in (1e-9, 1e-2):
            placed = place_point(anchors, deltas, init=init, max_iter=max_iter, tol=tol)
            assert np.all(np.isfinite(placed))
            assert placement_stress(placed, anchors, deltas) <= best_start * (1 + 1e-12)


class TestProcrustesProperties:
    @given(
        arrays(float, st.tuples(st.integers(3, 10), st.just(2)),
               elements=st.floats(-5.0, 5.0, allow_nan=False)),
        st.floats(0.0, 2 * np.pi),
        st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
    )
    @settings(max_examples=80)
    def test_rigid_motions_fully_undone(self, reference, theta, shift):
        rotation = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        config = reference @ rotation.T + np.asarray(shift)
        aligned, _, _ = procrustes_align(reference, config)
        np.testing.assert_allclose(aligned, reference, atol=1e-6)

    @given(
        arrays(float, st.tuples(st.integers(3, 8), st.just(2)),
               elements=st.floats(-5.0, 5.0, allow_nan=False)),
        arrays(float, st.tuples(st.integers(3, 8), st.just(2)),
               elements=st.floats(-5.0, 5.0, allow_nan=False)),
    )
    @settings(max_examples=60)
    def test_alignment_preserves_internal_distances(self, reference, config):
        if reference.shape != config.shape:
            return
        aligned, _, _ = procrustes_align(reference, config)
        np.testing.assert_allclose(
            pairwise_distances(aligned), pairwise_distances(config), atol=1e-6
        )


class TestDedupProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=60,
        ),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=80)
    def test_every_sample_within_epsilon_of_its_representative(
        self, samples, epsilon
    ):
        reps = RepresentativeSet(epsilon=epsilon)
        for sample in samples:
            index, _ = reps.assign(np.asarray(sample))
            distance = np.linalg.norm(np.asarray(sample) - reps.points[index])
            assert distance <= epsilon + 1e-9

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=2,
            max_size=60,
        ),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=80)
    def test_representatives_pairwise_separated(self, samples, epsilon):
        reps = RepresentativeSet(epsilon=epsilon)
        for sample in samples:
            reps.assign(np.asarray(sample))
        points = reps.points
        n = len(reps)
        for i in range(n):
            for j in range(i + 1, n):
                assert np.linalg.norm(points[i] - points[j]) > epsilon

    @given(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_counts_conserve_sample_total(self, samples):
        reps = RepresentativeSet(epsilon=0.1)
        for sample in samples:
            reps.assign(np.asarray(sample))
        assert reps.counts.sum() == len(samples)
