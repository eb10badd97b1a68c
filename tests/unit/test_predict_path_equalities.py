"""The equalities the per-period predict path is built on, bit for bit.

Each fast form in ``repro.trajectory`` / ``repro.core`` /
``repro.monitoring`` replaced a NumPy spelling on the claim that both
give the same IEEE bits. These tests keep the replaced spelling as the
reference and demand equal bytes (``-0.0`` and ``0.0`` differ there).
"""

from __future__ import annotations

from math import sqrt

import numpy as np
import pytest

from repro.core.state_space import CENTER_EPSILON, ViolationGeometry
from repro.monitoring.normalize import CapacityNormalizer
from repro.trajectory.sampling import TrajectoryModel
from tests.support.sampling_reference import drawn_steps

SPECIALS = [float("nan"), 0.0, -0.0, float("inf"), float("-inf"), 0.5, 1.0, 2.0, -3.0]


def broadcast_vote(geometry: ViolationGeometry, candidates: np.ndarray) -> int:
    """The ``(n, v, 2)`` broadcast :meth:`ViolationGeometry.vote` replaced."""
    if geometry.centers.shape[0] == 0 or candidates.shape[0] == 0:
        return 0
    deltas = candidates[:, None, :] - geometry.centers
    distances = np.sqrt(np.add.reduce(deltas * deltas, axis=2))
    inside = distances <= np.fmax(geometry.radii, CENTER_EPSILON)
    return int(np.count_nonzero(np.logical_or.reduce(inside, axis=1)))


def geometry_of(centers: np.ndarray, radii: np.ndarray) -> ViolationGeometry:
    return ViolationGeometry(
        n_states=len(radii),
        scale=1.0,
        violation_indices=np.arange(len(radii)),
        centers=centers,
        radii=radii,
    )


class TestPlaneVote:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_inputs_vote_as_the_broadcast(self, seed):
        rng = np.random.default_rng(seed)
        v, n = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        geometry = geometry_of(
            rng.uniform(-1.0, 1.0, size=(v, 2)), rng.uniform(0.0, 0.6, size=v)
        )
        candidates = rng.uniform(-1.5, 1.5, size=(n, 2))
        assert geometry.vote(candidates) == broadcast_vote(geometry, candidates)

    def test_the_distance_plane_equals_the_broadcast_bit_for_bit(self):
        rng = np.random.default_rng(7)
        centers, candidates = rng.normal(size=(30, 2)), rng.normal(size=(9, 2))
        dx = candidates[:, 0:1] - centers[:, 0]
        dy = candidates[:, 1:2] - centers[:, 1]
        dx *= dx
        dy *= dy
        dx += dy
        np.sqrt(dx, out=dx)
        deltas = candidates[:, None, :] - centers
        reference = np.sqrt(np.add.reduce(deltas * deltas, axis=2))
        assert dx.tobytes() == reference.tobytes()

    def test_nan_radius_keeps_the_centre_test(self):
        centers = np.array([[0.0, 0.0], [1.0, 1.0]])
        geometry = geometry_of(centers, np.array([float("nan"), 0.1]))
        candidates = np.array([[0.0, 0.0], [0.05, 0.0], [1.05, 1.0], [3.0, 3.0]])
        assert geometry.vote(candidates) == broadcast_vote(geometry, candidates) == 2

    def test_zero_radius_counts_a_candidate_on_its_centre(self):
        centers = np.array([[0.25, -0.5]])
        geometry = geometry_of(centers, np.array([0.0]))
        candidates = np.array([[0.25, -0.5], [0.25, -0.49]])
        assert geometry.vote(candidates) == broadcast_vote(geometry, candidates) == 1

    def test_empty_candidates_or_centres_vote_zero(self):
        full = geometry_of(np.array([[0.0, 0.0]]), np.array([1.0]))
        empty = geometry_of(np.empty((0, 2)), np.empty(0))
        some = np.zeros((3, 2))
        none = np.empty((0, 2))
        for geometry, candidates in [(full, none), (empty, some), (empty, none)]:
            assert geometry.vote(candidates) == broadcast_vote(geometry, candidates) == 0

    def test_the_vote_reads_the_live_radii(self):
        geometry = geometry_of(np.array([[0.0, 0.0]]), np.array([1.0]))
        candidates = np.array([[0.5, 0.0]])
        assert geometry.vote(candidates) == 1
        geometry.radii[0] = 0.1
        assert geometry.vote(candidates) == broadcast_vote(geometry, candidates) == 0


class TestGeneratorRandomIsUniform:
    @pytest.mark.parametrize("shape", [(4, 5), (2, 5), (0, 5), (4, 1)])
    def test_same_bits_and_same_next_draw(self, shape):
        for seed in range(20):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            assert rng.random(shape).tobytes() == reference.uniform(0.0, 1.0, shape).tobytes()
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.random() == reference.uniform(0.0, 1.0)


def array_candidates(
    model: TrajectoryModel, current: np.ndarray, rng: np.random.Generator, n: int
) -> np.ndarray:
    """The array tail :meth:`TrajectoryModel.predict_candidates` replaced:
    the ``(n, 2)`` steps as two column products, then ``current + steps``."""
    return current + drawn_steps(model, rng, n)


def trained_model(rng: np.random.Generator, points: int) -> TrajectoryModel:
    model = TrajectoryModel(window=32, bins=int(rng.integers(1, 20)))
    for point in rng.normal(scale=float(rng.choice([1e-3, 1.0, 50.0])), size=(points, 2)):
        model.observe(point)
    return model


class TestCandidateTail:
    @pytest.mark.parametrize("seed", range(40))
    def test_the_float_tail_equals_current_plus_steps(self, seed):
        rng = np.random.default_rng(seed)
        model = trained_model(rng, int(rng.integers(0, 40)))
        current = rng.normal(scale=2.0, size=2)
        n = int(rng.integers(1, 12))
        draws, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):  # the streams stay in step, draw after draw
            got = model.predict_candidates(current, draws, n)
            assert got.tobytes() == array_candidates(model, current, reference, n).tobytes()
            assert draws.bit_generator.state == reference.bit_generator.state
        assert draws.random() == reference.random()

    @pytest.mark.parametrize("current", [[0.0, 0.0], [-0.0, -0.0], [1e300, -1e-300]])
    def test_signed_zero_and_extreme_positions(self, current):
        current = np.array(current)
        for model in (TrajectoryModel(), trained_model(np.random.default_rng(1), 20)):
            draws, reference = np.random.default_rng(9), np.random.default_rng(9)
            got = model.predict_candidates(current, draws, 7)
            assert got.tobytes() == array_candidates(model, current, reference, 7).tobytes()
            assert draws.random() == reference.random()


class TestTwoVectorNorm:
    def test_sqrt_of_the_dot_is_linalg_norm(self):
        rng = np.random.default_rng(3)
        vectors = [*rng.normal(size=(500, 2)), *rng.normal(scale=1e-160, size=(20, 2))]
        vectors += [np.array([a, b]) for a in SPECIALS for b in SPECIALS]
        for vector in vectors:
            got = sqrt(vector.dot(vector))
            want = float(np.linalg.norm(vector))
            assert type(got) is float
            assert np.array([got]).tobytes() == np.array([want]).tobytes()


class TestNormalizerClip:
    def test_the_method_equals_np_clip_on_special_values(self):
        values = np.array(SPECIALS + [1e300, -1e-300, 5e-324])
        got = values.clip(0.0, 1.0)
        assert got.tobytes() == np.clip(values, 0.0, 1.0).tobytes()
        assert np.signbit(got[2])  # -0.0 stays -0.0
        # The two-ufunc spelling is not the same: it loses the sign of -0.0.
        assert not np.signbit(np.maximum(np.minimum(values, 1.0), 0.0)[2])

    def test_normalize_equals_np_clip(self):
        normalizer = CapacityNormalizer([4.0, 2.0, 8.0, 1.0, 1.0, 1.0], vm_count=1)
        rng = np.random.default_rng(0)
        rows = [rng.uniform(-2.0, 12.0, size=6) for _ in range(50)]
        rows.append(np.array(SPECIALS[:6]))
        for values in rows:
            want = np.clip(values / normalizer.scale, 0.0, 1.0)
            assert normalizer.normalize(values).tobytes() == want.tobytes()
