"""Property-based tests for state-space invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state_space import StateLabel, StateSpace, violation_range_radius
from tests.support.geometry_reference import in_range


class TestRadiusLaw:
    @given(st.floats(0.0, 100.0), st.floats(0.001, 10.0))
    def test_radius_nonnegative_and_below_distance(self, d, c):
        radius = violation_range_radius(d, c)
        assert radius >= 0.0
        assert radius <= d

    @given(st.floats(0.001, 10.0))
    def test_global_max_at_c(self, c):
        peak = violation_range_radius(c, c)
        for factor in [0.25, 0.5, 0.75, 1.5, 2.0, 4.0]:
            assert violation_range_radius(factor * c, c) <= peak + 1e-12

    @given(st.floats(0.001, 5.0), st.floats(0.001, 5.0), st.floats(1.001, 3.0))
    def test_fades_monotonically_beyond_peak(self, c, d0, growth):
        d_far = max(d0, c) * growth
        d_farther = d_far * growth
        assert violation_range_radius(d_farther, c) <= violation_range_radius(
            d_far, c
        ) + 1e-12


@st.composite
def sample_streams(draw):
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(2, 6))
    samples = [
        np.asarray(
            draw(
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False),
                    min_size=dim,
                    max_size=dim,
                )
            )
        )
        for _ in range(n)
    ]
    violations = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    return samples, violations


class TestStateSpaceInvariants:
    @given(sample_streams())
    @settings(max_examples=40, deadline=None)
    def test_labels_and_coords_stay_aligned(self, stream):
        samples, violations = stream
        space = StateSpace(epsilon=0.05, refit_interval=15)
        for i, sample in enumerate(samples):
            index, _, _ = space.add_sample(sample, violated=i in violations)
            assert 0 <= index < len(space)
        assert space.coords.shape == (len(space), 2)
        assert len(space.labels) == len(space)
        assert np.all(np.isfinite(space.coords))

    @given(sample_streams())
    @settings(max_examples=40, deadline=None)
    def test_partition_of_indices(self, stream):
        samples, violations = stream
        space = StateSpace(epsilon=0.05, refit_interval=100)
        for i, sample in enumerate(samples):
            space.add_sample(sample, violated=i in violations)
        all_indices = sorted(
            space.violation_indices.tolist() + space.safe_indices.tolist()
        )
        assert all_indices == list(range(len(space)))

    @given(sample_streams())
    @settings(max_examples=30, deadline=None)
    def test_violation_sticky_under_any_sequence(self, stream):
        samples, violations = stream
        space = StateSpace(epsilon=0.05, refit_interval=100)
        for i, sample in enumerate(samples):
            space.add_sample(sample, violated=i in violations)
        # Replay every sample as safe: labels must not flip back.
        labels_before = list(space.labels)
        for sample in samples:
            space.add_sample(sample, violated=False)
        for before, after in zip(labels_before, space.labels):
            if before is StateLabel.VIOLATION:
                assert after is StateLabel.VIOLATION

    @given(sample_streams())
    @settings(max_examples=30, deadline=None)
    def test_every_violation_state_inside_own_range(self, stream):
        samples, violations = stream
        space = StateSpace(epsilon=0.05, refit_interval=100)
        for i, sample in enumerate(samples):
            space.add_sample(sample, violated=i in violations)
        for index in space.violation_indices:
            assert in_range(space, space.coords[index])

    @given(sample_streams())
    @settings(max_examples=30, deadline=None)
    def test_votes_bounded_by_candidates(self, stream):
        samples, violations = stream
        space = StateSpace(epsilon=0.05, refit_interval=100)
        for i, sample in enumerate(samples):
            space.add_sample(sample, violated=i in violations)
        rng = np.random.default_rng(0)
        candidates = rng.uniform(-2, 2, size=(7, 2))
        votes = space.violation_vote(candidates)
        assert 0 <= votes <= 7
