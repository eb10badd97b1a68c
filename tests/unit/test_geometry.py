"""Unit tests for the cached, vectorized violation-range geometry."""

import numpy as np
import pytest

from repro.core.state_space import (
    CENTER_EPSILON,
    StateLabel,
    StateSpace,
    ViolationGeometry,
)
from repro.telemetry import Telemetry
from tests.support.geometry_reference import (
    in_range,
    in_violation_range_scalar,
    violation_ranges_scalar,
    violation_vote_scalar,
)
from tests.support.kernel_reference import cross_distances


def grow_space(samples, violations=frozenset(), epsilon=0.05, **kwargs):
    space = StateSpace(epsilon=epsilon, refit_interval=1000, **kwargs)
    for i, sample in enumerate(samples):
        space.add_sample(np.asarray(sample, float), violated=i in violations)
    return space


def random_space(
    seed, n=60, dim=4, violation_every=5, refit_interval=1000, telemetry=None
):
    rng = np.random.default_rng(seed)
    space = StateSpace(
        epsilon=0.03, refit_interval=refit_interval, telemetry=telemetry
    )
    for i in range(n):
        violated = violation_every is not None and i % violation_every == 0
        space.add_sample(rng.uniform(0, 1, dim), violated=violated)
    return space, rng


def assert_equivalent(space, candidates):
    """Vectorized and scalar paths must agree on every geometry query."""
    assert space.violation_vote(candidates) == violation_vote_scalar(space, candidates)
    for point in candidates:
        assert in_range(space, point) == in_violation_range_scalar(
            space, point
        )
    vectorized = space.violation_ranges()
    scalar = violation_ranges_scalar(space)
    assert len(vectorized) == len(scalar)
    for (center_v, radius_v), (center_s, radius_s) in zip(vectorized, scalar):
        assert np.array_equal(center_v, center_s)
        assert radius_v == radius_s


class TestEquivalence:
    def test_random_space_votes_identical(self):
        space, rng = random_space(seed=11)
        assert_equivalent(space, rng.uniform(-0.5, 1.5, size=(40, 2)))

    def test_all_safe_space(self):
        space, rng = random_space(seed=12, violation_every=None)
        assert space.violation_indices.size == 0
        candidates = rng.uniform(-1, 1, size=(10, 2))
        assert space.violation_vote(candidates) == 0
        assert_equivalent(space, candidates)

    def test_all_violation_space(self):
        space, rng = random_space(seed=13, violation_every=1)
        assert space.safe_indices.size == 0
        assert_equivalent(space, rng.uniform(-0.5, 1.5, size=(20, 2)))
        # Fallback (Rayleigh-peak) radii are positive on a spread map.
        for _, radius in space.violation_ranges():
            assert radius > 0

    def test_fixed_radius_law(self):
        space, rng = random_space(seed=14)
        space.radius_law = "fixed"
        space.fixed_radius = 0.07
        space.invalidate_geometry()
        assert_equivalent(space, rng.uniform(-0.5, 1.5, size=(25, 2)))
        for _, radius in space.violation_ranges():
            assert radius == pytest.approx(0.07)

    def test_post_refit_equivalence(self):
        space, rng = random_space(seed=15, refit_interval=20)
        assert space.refit_count >= 1
        space.refit()
        assert_equivalent(space, rng.uniform(-0.5, 1.5, size=(30, 2)))

    def test_center_always_inside_own_range(self):
        space, _ = random_space(seed=16)
        for index in space.violation_indices:
            assert in_range(space, space.coords[index])
            assert in_violation_range_scalar(space, space.coords[index])

    def test_degenerate_single_state(self):
        space = grow_space([[0.4, 0.4]], violations={0})
        # Scale is 0 (fewer than 2 states) -> radius 0, center still hit.
        assert in_range(space, space.coords[0])
        assert not in_range(space, np.array([5.0, 5.0]))
        assert_equivalent(space, np.vstack([space.coords[0], [5.0, 5.0]]))


class TestCache:
    def test_repeated_votes_hit_cache(self):
        space, rng = random_space(seed=21)
        candidates = rng.uniform(0, 1, size=(5, 2))
        space.violation_vote(candidates)
        rebuilds_after_first = space.geometry_stats()["rebuilds"]
        for _ in range(10):
            space.violation_vote(candidates)
        stats = space.geometry_stats()
        assert stats["rebuilds"] == rebuilds_after_first
        assert stats["cache_hits"] >= 10

    def test_geometry_snapshot_is_consistent(self):
        space, _ = random_space(seed=22)
        geometry = space.geometry()
        assert isinstance(geometry, ViolationGeometry)
        assert geometry.n_states == len(space)
        assert geometry.centers.shape == (geometry.n_violations, 2)
        assert geometry.radii.shape == (geometry.n_violations,)
        assert geometry.scale == space.coordinate_scale()

    def test_new_representative_invalidates(self):
        space, rng = random_space(seed=23)
        space.geometry()
        space.add_sample(rng.uniform(2, 3, 4), violated=False)
        stats = space.geometry_stats()
        assert stats["invalidations"] >= 1
        assert space.geometry().n_states == len(space)

    def test_sticky_relabel_after_merge_changes_next_vote(self):
        # A candidate sitting exactly on a safe state votes 0; after the
        # same high-dim sample merges back in with a violation report,
        # the relabel must invalidate the cache and flip the vote.
        space = grow_space(
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
            violations={1},
            epsilon=0.01,
        )
        target = space.safe_indices[0]
        candidates = space.coords[target][None, :]
        assert space.violation_vote(candidates) == 0
        space.add_sample(space.representatives.points[target], violated=True)
        assert space.labels[target] is StateLabel.VIOLATION
        assert space.violation_vote(candidates) == 1
        assert violation_vote_scalar(space, candidates) == 1

    def test_refit_invalidates(self):
        space, _ = random_space(seed=24)
        space.geometry()
        before = space.geometry_stats()["invalidations"]
        space.refit()
        assert space.geometry_stats()["invalidations"] == before + 1

    def test_stale_size_rebuilds_even_without_invalidate(self):
        # Defense in depth: external code appending states without
        # honoring the contract still gets a fresh geometry.
        space, _ = random_space(seed=25)
        space.geometry()
        space.coords = np.vstack([space.coords, [[9.0, 9.0]]])
        space.labels.append(StateLabel.VIOLATION)
        geometry = space.geometry()
        assert geometry.n_states == len(space)
        assert 9.0 in geometry.centers[:, 0]


class TestTelemetryWiring:
    def test_counters_and_stage_timer(self):
        telemetry = Telemetry(enabled=True)
        space, rng = random_space(seed=31, telemetry=telemetry)
        space.invalidate_geometry()
        candidates = rng.uniform(0, 1, size=(5, 2))
        space.violation_vote(candidates)
        space.violation_vote(candidates)
        assert telemetry.counter("geometry.rebuilds").value == 1
        assert telemetry.counter("geometry.cache_hits").value >= 1
        rebuild = telemetry.histogram("geometry.rebuild_seconds")
        assert rebuild.count == 1
        space.add_sample(rng.uniform(2, 3, 4), violated=True)
        assert telemetry.counter("geometry.invalidations").value >= 1

    def test_counters_live_without_telemetry(self):
        space, rng = random_space(seed=32)
        space.violation_vote(rng.uniform(0, 1, size=(5, 2)))
        stats = space.geometry_stats()
        assert stats["rebuilds"] >= 1


def two_comparison_inside(geometry, candidates):
    """The membership matrix as the vote wrote it until PR 23."""
    distances = cross_distances(candidates, geometry.centers)
    return (distances <= CENTER_EPSILON) | (distances <= geometry.radii[None, :])


class TestOneComparisonVote:
    """``d <= fmax(r, eps)`` is ``(d <= eps) | (d <= r)`` for every float."""

    RADII = [0.0, 5e-324, float("nan"), -1.0, float("inf"), 0.25]

    def geometry(self):
        centers = np.array([[float(i), 0.0] for i in range(len(self.RADII))])
        return ViolationGeometry(
            n_states=len(self.RADII),
            scale=1.0,
            violation_indices=np.arange(len(self.RADII)),
            centers=centers,
            radii=np.array(self.RADII),
        )

    def candidates(self):
        rng = np.random.default_rng(7)
        on_centres = np.array([[float(i), 0.0] for i in range(len(self.RADII))])
        near = on_centres + rng.uniform(-0.3, 0.3, size=on_centres.shape)
        broken = np.array([[np.nan, 0.0], [2.0, np.nan], [np.nan, np.nan]])
        return np.vstack([on_centres, near, on_centres + [5e-13, 0.0], broken])

    def test_vote_and_contains_equal_the_two_comparison_form(self):
        geometry, candidates = self.geometry(), self.candidates()
        inside = two_comparison_inside(geometry, candidates)
        assert geometry.vote(candidates) == int(np.count_nonzero(inside.any(axis=1)))
        for candidate, row in zip(candidates, inside):
            assert geometry.vote(candidate[None, :]) == int(row.any())

    def test_a_nan_radius_keeps_its_centre_test(self):
        # The named example: a candidate exactly on the centre of a disc
        # whose radius went NaN is still inside it. ``np.maximum(nan,
        # eps)`` is NaN and loses the centre test; ``np.fmax`` keeps it.
        geometry = self.geometry()
        on_the_nan_disc = geometry.centers[2][None, :]
        assert np.isnan(geometry.radii[2])
        assert two_comparison_inside(geometry, on_the_nan_disc)[0, 2]
        assert geometry.vote(on_the_nan_disc) == 1
        distances = cross_distances(on_the_nan_disc, geometry.centers)
        assert not (distances <= np.maximum(geometry.radii, CENTER_EPSILON))[0, 2]

    def test_a_radius_written_in_place_is_voted_on_as_written(self):
        # The threshold is read from the live radii on every vote, never
        # cached at build: what ModelPoisoner writes, the uncontained
        # arm of the recovery drill votes on (and the watchdog reads).
        space, _ = random_space(seed=41)
        geometry = space.geometry()
        index = int(np.argmax(geometry.radii))
        assert geometry.radii[index] > 0
        candidate = (geometry.centers[index] + [0.5 * geometry.radii[index], 0.0])[None, :]
        before = space.violation_vote(candidate)
        assert before == 1
        saved = geometry.radii.copy()
        geometry.radii[:] = -1.0
        assert space.violation_vote(candidate) == 0
        geometry.radii[:] = saved
        assert space.violation_vote(candidate) == before
