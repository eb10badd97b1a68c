"""The placement kernel and the geometry rebuild against their array originals.

``tests/support/kernel_reference.py`` keeps the kernel and the rebuild
as they were when every ``(S,)``-sized step still went through NumPy.
The program must reproduce them to the last bit: every placed
coordinate, every stress, every start row, every scale, center and
radius, and the same ``ValueError`` wherever they raised one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state_space import StateLabel, StateSpace
from repro.mds.distances import point_distances
from repro.mds.incremental import _descend, _multi_starts, place_point
from tests.support.kernel_reference import (
    ReferenceAnchorFrame,
    reference_build_geometry,
    reference_coordinate_scale,
    reference_descend,
    reference_multi_starts,
    reference_place_point,
)

ANCHOR_KINDS = (
    "random", "collinear", "coincident", "lattice", "tied", "rounded", "overflow"
)
DELTA_KINDS = ("realizable", "zero", "unrealizable", "high-dimensional", "overflow")


def kernel_case(seed, n, anchor_kind, delta_kind, with_init):
    """A seeded ``(anchors, deltas, init)`` placement input of the named shape."""
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(n, 2)) * rng.choice([0.01, 1.0, 50.0])
    if anchor_kind == "collinear":
        anchors[:, 1] = 0.5 * anchors[:, 0] + 1.0
    elif anchor_kind == "coincident":
        anchors[n // 2:] = anchors[0]
    elif anchor_kind == "lattice":
        # many exactly tied widest pairs
        anchors = np.stack(np.divmod(np.arange(n), 7), axis=1).astype(float)
    elif anchor_kind == "tied":
        # a rectangle's two diagonals are exactly as long; the rest inside
        width, height = rng.uniform(0.5, 3.0, size=2)
        anchors = rng.uniform(0.0, 1.0, size=(n, 2)) * [width, height]
        corners = np.array([[0.0, 0.0], [width, 0.0], [0.0, height], [width, height]])
        anchors[rng.permutation(n)[:min(n, 4)]] = corners[:min(n, 4)]
    elif anchor_kind == "rounded":
        # whole numbers: exact ties, and -0.0 wherever a negative rounds up
        anchors = np.round(anchors)
    elif anchor_kind == "overflow":
        # squares of the offsets overflow, or nearly do
        anchors = anchors * rng.choice([1e150, 1e154, 1e160, 1e200])
    if delta_kind == "realizable":
        with np.errstate(over="ignore"):
            deltas = point_distances(rng.normal(size=2), anchors)
    elif delta_kind == "zero":
        deltas = np.zeros(n)
    elif delta_kind == "unrealizable":
        deltas = np.abs(rng.normal(size=n)) * 3.0
    elif delta_kind == "high-dimensional":
        deltas = np.linalg.norm(rng.normal(size=(n, 6)) - rng.normal(size=6), axis=1)
    else:
        deltas = np.abs(rng.normal(size=n)) * rng.choice([1e150, 1e200])
    init = rng.normal(size=2) * 2.0 if with_init else None
    return anchors, deltas, init


def kernel_cases():
    return st.builds(
        kernel_case,
        st.integers(0, 2**32 - 1),
        st.integers(2, 200),
        st.sampled_from(ANCHOR_KINDS),
        st.sampled_from(DELTA_KINDS),
        st.booleans(),
    )


def outcome(place, *args, **kwargs):
    """What one call gave back: its bytes, or the message it raised."""
    try:
        with np.errstate(all="ignore"):
            return place(*args, **kwargs).tobytes()
    except ValueError as error:
        return f"ValueError: {error}"


def same_bits(ours: np.ndarray, theirs: np.ndarray) -> bool:
    return ours.dtype == theirs.dtype and ours.shape == theirs.shape and (
        ours.tobytes() == theirs.tobytes()
    )


class TestPlacementBitIdentity:
    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_place_point_and_its_starts_equal_the_array_kernel(self, case):
        anchors, deltas, init = case
        assert outcome(place_point, anchors, deltas, init=init) == outcome(
            reference_place_point, anchors, deltas, init=init
        )
        with np.errstate(all="ignore"):
            starts = _multi_starts(anchors, deltas)
            assert same_bits(starts, reference_multi_starts(anchors, deltas))

    @given(
        kernel_cases(),
        st.integers(1, 10),
        st.integers(0, 40),
        st.sampled_from([0.0, 1e-9, 1e-3]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_descend_rows_equal_the_array_kernel(self, case, rows, max_iter, tol, seed):
        anchors, deltas, _ = case
        rng = np.random.default_rng(seed)
        spread = 1.0 + float(np.abs(anchors).max())
        with np.errstate(all="ignore"):
            starts = rng.normal(size=(rows, 2)) * spread
            starts[0] = anchors[0]  # a start sitting on an anchor
            placed, stress = _descend(starts, anchors, deltas, max_iter, tol)
            expected_placed, expected_stress = reference_descend(
                starts, anchors, deltas, max_iter, tol
            )
        assert same_bits(placed, expected_placed)
        assert same_bits(stress, expected_stress)

    @pytest.mark.parametrize(
        "anchors, deltas, init",
        [
            (np.array([[0.0, np.nan], [1.0, 0.0]]), np.ones(2), None),
            (np.array([[0.0, 0.0], [np.inf, 0.0]]), np.ones(2), None),
            (np.zeros((2, 2)), np.array([1.0, np.nan]), None),
            (np.zeros((2, 2)), np.array([1.0, -np.inf]), None),
            (np.eye(2), np.ones(2), np.array([np.nan, 0.0])),
            (np.eye(2), np.array([1.0, -1.0]), None),
            (np.zeros((3, 3)), np.ones(3), None),
            (np.eye(2), np.ones(2), np.zeros(3)),
            (np.eye(2), np.ones(3), None),
            # finite, but no start reaches a finite stress
            (np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.full(4, 1e200), None),
            (np.array([[-1e308, 0.0], [1e308, 0.0]]), np.ones(2), np.zeros(2)),
        ],
    )
    def test_rejections_raise_the_same_error(self, anchors, deltas, init):
        expected = outcome(reference_place_point, anchors, deltas, init=init)
        assert expected.startswith("ValueError")
        assert outcome(place_point, anchors, deltas, init=init) == expected

    def test_the_stop_test_rounds_like_np_hypot(self):
        # ``math.hypot`` and ``np.hypot`` part in the last bit on a few
        # steps in a thousand. With ``tol`` between the two, which one a
        # row measures its first step with decides whether it takes a
        # second: find such a step, and require the array kernel's end.
        rng = np.random.default_rng(0)
        for _ in range(5000):
            anchors, deltas = rng.normal(size=(6, 2)), np.abs(rng.normal(size=6))
            start = rng.normal(size=(1, 2))
            frame = ReferenceAnchorFrame(1, anchors, deltas)
            frame.evaluate(start)
            (m00, m01), (_, m11) = frame.curvature[0] + 6.0 * np.eye(2)
            g0, g1 = frame.gradient[0]
            determinant = m00 * m11 - m01 * m01
            step = np.array([m11 * g0 - m01 * g1, m00 * g1 - m01 * g0]) / determinant
            ours, theirs = math.hypot(*step), float(np.hypot(*step))
            if ours == theirs:
                continue
            tol = max(ours, theirs)
            expected, _ = reference_descend(start, anchors, deltas, 2, tol)
            if np.array_equal(expected, reference_descend(start, anchors, deltas, 2, 0.0)[0]):
                continue  # the second step would not have moved the row
            assert same_bits(_descend(start, anchors, deltas, 2, tol)[0], expected)
            return
        pytest.fail("no step found whose two hypots differ")


def geometry_space(seed, n, layout, law, labels):
    """A state space with ``n`` states of the named layout and labelling."""
    rng = np.random.default_rng(seed)
    space = StateSpace(radius_law=law, fixed_radius=float(rng.uniform(0.01, 0.2)))
    coords = rng.normal(size=(n, 2)) * rng.choice([1e-3, 1.0, 40.0])
    if layout == "coincident":
        coords[:] = coords[0]
    elif layout == "collinear":
        coords[:, 1] = -2.0 * coords[:, 0]
    elif layout == "lattice":
        coords = np.stack(np.divmod(np.arange(n), 5), axis=1).astype(float)
    elif layout == "poisoned":
        coords[rng.integers(n)] = rng.choice([np.nan, np.inf, -np.inf])
    elif layout == "huge":
        # two finite ranges whose sum overflows
        coords = rng.uniform(0.0, 1.7e308, size=(n, 2))
    elif layout == "tiny":
        # subnormal ranges, where halving first would round
        coords = coords * 1e-310
    space.coords = coords
    if labels == "all-safe":
        space.labels = [StateLabel.SAFE] * n
    elif labels == "all-violation":
        space.labels = [StateLabel.VIOLATION] * n
    else:
        space.labels = [
            StateLabel.VIOLATION if flag else StateLabel.SAFE
            for flag in rng.uniform(size=n) < 0.3
        ]
    return space


def same_float(ours: float, theirs: float) -> bool:
    """Equal bits; a NaN only has to be a NaN (its payload is not data)."""
    if np.isnan(theirs):
        return bool(np.isnan(ours))
    return np.float64(ours).tobytes() == np.float64(theirs).tobytes()


def same_values(ours: np.ndarray, theirs: np.ndarray) -> bool:
    if ours.dtype != theirs.dtype or ours.shape != theirs.shape:
        return False
    nan = np.isnan(theirs)
    return bool(np.array_equal(np.isnan(ours), nan)) and (
        ours[~nan].tobytes() == theirs[~nan].tobytes()
    )


class TestGeometryBitIdentity:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 120),
        st.sampled_from(
            ["random", "coincident", "collinear", "lattice", "poisoned", "huge", "tiny"]
        ),
        st.sampled_from(["rayleigh", "fixed"]),
        st.sampled_from(["mixed", "all-safe", "all-violation"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_rebuild_equals_the_array_rebuild(self, seed, n, layout, law, labels):
        space = geometry_space(seed, max(n, 1), layout, law, labels)
        with np.errstate(all="ignore"):
            geometry = space._build_geometry()
            expected = reference_build_geometry(space)
            assert same_float(space.coordinate_scale(), reference_coordinate_scale(space))
        assert geometry.n_states == expected.n_states
        assert same_float(geometry.scale, expected.scale)
        assert same_bits(geometry.violation_indices, expected.violation_indices)
        assert same_values(geometry.centers, expected.centers)
        assert same_values(geometry.radii, expected.radii)

    def test_empty_space(self):
        space = StateSpace()
        assert space.coordinate_scale() == reference_coordinate_scale(space) == 0.0
        geometry, expected = space._build_geometry(), reference_build_geometry(space)
        assert same_bits(geometry.violation_indices, expected.violation_indices)
        assert same_bits(geometry.centers, expected.centers)
        assert same_bits(geometry.radii, expected.radii)
