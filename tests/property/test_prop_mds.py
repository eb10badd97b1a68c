"""Property-based tests for the MDS stack."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mds.classical import classical_mds
from repro.mds.dedup import RepresentativeSet
from repro.mds.distances import pairwise_distances, point_distances
from repro.mds.incremental import (
    place_point,
    place_point_reference,
    procrustes_align,
)
from repro.mds.smacof import smacof
from repro.mds.stress import raw_stress


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
    """A seeded ``(anchors, deltas, init)`` triple of the named shape."""
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(n, 2)) * rng.choice([0.01, 1.0, 50.0])
    if anchor_kind == "collinear":
        anchors[:, 1] = 0.5 * anchors[:, 0] + 1.0
    elif anchor_kind == "coincident":
        anchors[n // 2:] = anchors[0]
    elif anchor_kind == "lattice":
        # many exactly tied widest pairs
        anchors = np.stack(np.divmod(np.arange(n), 7), axis=1).astype(float)
    if delta_kind == "realizable":
        deltas = point_distances(rng.normal(size=2), anchors)
    elif delta_kind == "zero":
        deltas = np.zeros(n)
    elif delta_kind == "unrealizable":
        deltas = np.abs(rng.normal(size=n)) * 3.0
    else:
        deltas = np.linalg.norm(rng.normal(size=(n, 6)) - rng.normal(size=6), axis=1)
    init = rng.normal(size=2) * 2.0 if with_init else None
    return anchors, deltas, init


class TestPlacementKernelEquivalence:
    """``place_point`` returns the reference's coordinates bit for bit."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 200),
        st.sampled_from(ANCHOR_KINDS),
        st.sampled_from(DELTA_KINDS),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_seeded_anchor_sets(self, seed, n, anchor_kind, delta_kind, with_init):
        anchors, deltas, init = placement_case(seed, n, anchor_kind, delta_kind, with_init)
        assert np.array_equal(
            place_point(anchors, deltas, init=init),
            place_point_reference(anchors, deltas, init=init),
        )

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
        assert np.array_equal(
            place_point(anchors, deltas, init=init),
            place_point_reference(anchors, deltas, init=init),
        )

    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_iteration_cap_and_tolerance_are_honoured_alike(self, seed, n, max_iter):
        anchors, deltas, _ = placement_case(seed, n, "random", "high-dimensional", False)
        for tol in (1e-9, 1e-2):
            assert np.array_equal(
                place_point(anchors, deltas, max_iter=max_iter, tol=tol),
                place_point_reference(anchors, deltas, max_iter=max_iter, tol=tol),
            )


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
