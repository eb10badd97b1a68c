"""Property-based equivalence of vectorized vs scalar violation geometry.

The cached :class:`~repro.core.state_space.ViolationGeometry` engine
must agree with the retained scalar reference on every query, across
arbitrary state spaces — including the degenerate all-safe and
all-violation corners and sequences that interleave refits and sticky
relabels with votes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state_space import StateSpace
from tests.support.geometry_reference import (
    in_range,
    in_violation_range_scalar,
    violation_ranges_scalar,
    violation_vote_scalar,
)


@st.composite
def labelled_streams(draw):
    n = draw(st.integers(2, 35))
    dim = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    samples = [rng.uniform(0.0, 1.0, dim) for _ in range(n)]
    # Cover the corners explicitly: all-safe, all-violation, mixed.
    regime = draw(st.sampled_from(["mixed", "all_safe", "all_violation"]))
    if regime == "all_safe":
        violations = set()
    elif regime == "all_violation":
        violations = set(range(n))
    else:
        violations = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return samples, violations, seed


def build(samples, violations, refit_interval=1000):
    space = StateSpace(epsilon=0.04)
    space.refit_interval = refit_interval
    for i, sample in enumerate(samples):
        space.add_sample(sample, violated=i in violations)
    return space


def assert_agreement(space, candidates):
    assert space.violation_vote(candidates) == violation_vote_scalar(space, candidates)
    for point in candidates:
        assert in_range(space, point) == in_violation_range_scalar(
            space, point
        )
    for (center_v, radius_v), (center_s, radius_s) in zip(
        space.violation_ranges(), violation_ranges_scalar(space)
    ):
        assert np.array_equal(center_v, center_s)
        assert radius_v == radius_s


class TestGeometryEquivalence:
    @given(labelled_streams())
    @settings(max_examples=40, deadline=None)
    def test_votes_and_membership_agree(self, stream):
        samples, violations, seed = stream
        space = build(samples, violations)
        rng = np.random.default_rng(seed + 1)
        candidates = rng.uniform(-1.5, 2.5, size=(12, 2))
        assert_agreement(space, candidates)

    @given(labelled_streams())
    @settings(max_examples=25, deadline=None)
    def test_agreement_survives_refit(self, stream):
        samples, violations, seed = stream
        space = build(samples, violations, refit_interval=10)
        space.refit()
        rng = np.random.default_rng(seed + 2)
        assert_agreement(space, rng.uniform(-1.0, 2.0, size=(8, 2)))

    @given(labelled_streams())
    @settings(max_examples=25, deadline=None)
    def test_agreement_after_post_refit_relabel_sequence(self, stream):
        # Vote (materializes the cache), refit, relabel a safe state by
        # replaying its own representative with a violation, vote again:
        # the cached path must track every mutation the scalar path sees.
        samples, violations, seed = stream
        space = build(samples, violations, refit_interval=10)
        rng = np.random.default_rng(seed + 3)
        candidates = rng.uniform(-1.0, 2.0, size=(8, 2))
        assert_agreement(space, candidates)
        space.refit()
        assert_agreement(space, candidates)
        safe = space.safe_indices
        if safe.size:
            space.add_sample(space.representatives.points[safe[0]], violated=True)
        assert_agreement(space, candidates)

    @given(labelled_streams())
    @settings(max_examples=20, deadline=None)
    def test_candidate_points_on_state_coords(self, stream):
        # Exact revisits exercise the center-epsilon rule on both paths.
        samples, violations, _ = stream
        space = build(samples, violations)
        assert_agreement(space, space.coords.copy())
