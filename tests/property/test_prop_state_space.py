"""Property-based tests for state-space invariants."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.state_space import (
    REFIT_MAX_ITER,
    StateLabel,
    StateSpace,
    violation_range_radius,
)
from repro.core.template import MapTemplate
from repro.mds.distances import pairwise_distances, point_distances
from repro.mds.incremental import place_point, procrustes_align
from repro.mds.smacof import smacof
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
        space = StateSpace(epsilon=0.05)
        space.refit_interval = 15
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
        space = StateSpace(epsilon=0.05)
        space.refit_interval = 100
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
        space = StateSpace(epsilon=0.05)
        space.refit_interval = 100
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
        space = StateSpace(epsilon=0.05)
        space.refit_interval = 100
        for i, sample in enumerate(samples):
            space.add_sample(sample, violated=i in violations)
        for index in space.violation_indices:
            assert in_range(space, space.coords[index])

    @given(sample_streams())
    @settings(max_examples=30, deadline=None)
    def test_votes_bounded_by_candidates(self, stream):
        samples, violations = stream
        space = StateSpace(epsilon=0.05)
        space.refit_interval = 100
        for i, sample in enumerate(samples):
            space.add_sample(sample, violated=i in violations)
        rng = np.random.default_rng(0)
        candidates = rng.uniform(-2, 2, size=(7, 2))
        votes = space.violation_vote(candidates)
        assert 0 <= votes <= 7


TABLE_OPERATION = st.integers(0, 10).flatmap(
    lambda k: st.tuples(
        st.just("add"),
        st.lists(
            st.tuples(st.tuples(*[st.integers(0, 4)] * 3), st.booleans()),
            min_size=1,
            max_size=8,
        ),
    )
    if k < 5
    else st.tuples(st.just("quarantine"), st.lists(st.integers(-2, 24), max_size=3))
    if k < 6
    else st.tuples(
        st.sampled_from(["write-coords", "write-points"]),
        st.integers(0, 40),
        st.integers(0, 2),
        st.sampled_from([-0.4, 0.0, 0.3, 0.9]),
    )
    if k < 8
    else st.tuples(st.sampled_from(["clear", "refit", "template"][k - 8 :]))
)


class ListOfRows:
    """The map as a list of ``(representative, coordinates, flag)`` rows,
    grown, placed and refitted with the calls :class:`StateSpace` makes."""

    def __init__(self, epsilon: float, refit_interval: int) -> None:
        self.epsilon = epsilon
        self.refit_interval = refit_interval
        self.rows = []
        self.new_since_refit = 0

    def add(self, sample: np.ndarray, violated: bool) -> int:
        points = [row[0] for row in self.rows]
        if points:
            distances = point_distances(sample, np.array(points))
            index = int(np.argmin(distances))
            if distances[index] > self.epsilon:
                coords = place_point(np.array([row[1] for row in self.rows]), distances)
                index = self._append(sample, coords)
        else:
            index = self._append(sample, np.zeros(2))
        if violated:
            self.rows[index][2] = True
        return index

    def _append(self, sample: np.ndarray, coords: np.ndarray) -> int:
        self.rows.append([sample, coords, False])
        self.new_since_refit += 1
        if self.new_since_refit >= self.refit_interval:
            self.refit()
        return len(self.rows) - 1

    def refit(self) -> None:
        self.new_since_refit = 0
        if len(self.rows) < 3:
            return
        coords = np.array([row[1] for row in self.rows])
        result = smacof(
            pairwise_distances(np.array([row[0] for row in self.rows])),
            n_components=2,
            init=coords,
            max_iter=REFIT_MAX_ITER,
        )
        aligned, _, _ = procrustes_align(coords, result.embedding)
        for row, placed in zip(self.rows, aligned):
            row[1] = placed.copy()

    def separated(self) -> bool:
        """Whether every row would open its own ball on a reload."""
        points = [row[0] for row in self.rows]
        return all(
            point_distances(points[i], np.array(points[:i])).min() > self.epsilon
            for i in range(1, len(points))
        )


class TestOneTable:
    @given(st.sampled_from([0.05, 0.15]), st.lists(TABLE_OPERATION, max_size=30))
    @example(
        0.05,
        [
            ("add", [((0, 0, 0), False), ((2, 0, 0), True), ((0, 3, 0), False)]),
            ("write-points", 1, 0, 0.0),
            ("template",),
            ("add", [((0, 0, 0), True), ((4, 4, 4), False), ((4, 0, 4), False)]),
        ],
    )
    @settings(max_examples=80, deadline=None)
    def test_the_map_equals_a_list_of_rows(self, epsilon, operations):
        """After every operation the representatives, coordinates and
        flags have one length and equal a list-of-rows reference bit for
        bit: new states, merges, sticky relabels, refits (every fourth
        new state, and called), quarantines, clears, a template round
        trip and writes made into ``coords`` and ``points``."""
        space = StateSpace(epsilon=epsilon)
        space.refit_interval = 4
        reference = ListOfRows(epsilon, refit_interval=4)
        for operation, *arguments in operations:
            if operation == "add":
                for cell, violated in arguments[0]:
                    sample = np.asarray(cell, dtype=float) * 0.1
                    index = reference.add(sample, violated)
                    assert space.add_sample(sample, violated)[0] == index
            elif operation == "quarantine":
                doomed = {i for i in arguments[0] if 0 <= i < len(reference.rows)}
                reference.rows = [
                    row for i, row in enumerate(reference.rows) if i not in doomed
                ]
                reference.new_since_refit = min(
                    reference.new_since_refit, len(reference.rows)
                )
                assert space.quarantine(arguments[0]) == len(doomed)
            elif operation == "clear":
                reference.rows, reference.new_since_refit = [], 0
                space.clear()
            elif operation == "refit":
                reference.refit()
                space.refit()
            elif operation == "template":
                data = json.loads(
                    json.dumps(MapTemplate.from_state_space(space, beta=0.05).to_dict())
                )
                template = MapTemplate.from_dict(data)
                if reference.separated():
                    space = template.build_state_space()
                    space.refit_interval = 4
                    reference.new_since_refit = 0
                else:
                    with pytest.raises(ValueError, match="not epsilon-separated"):
                        template.build_state_space()
            elif reference.rows:  # a write into one entry of a live view
                row, column, value = arguments
                row %= len(reference.rows)
                if operation == "write-coords":
                    column %= 2
                    space.coords[row, column] = value
                    part = 1
                else:
                    space.representatives.points[row, column] = value
                    part = 0
                reference.rows[row][part] = reference.rows[row][part].copy()
                reference.rows[row][part][column] = value
            n = len(reference.rows)
            assert len(space) == len(space.representatives) == n
            assert space.coords.shape == (n, 2) and space.violation.shape == (n,)
            points = np.array([row[0] for row in reference.rows])
            coords = np.array([row[1] for row in reference.rows])
            assert space.representatives.points.tobytes() == points.tobytes()
            assert space.coords.tobytes() == coords.tobytes()
            assert space.violation.tolist() == [row[2] for row in reference.rows]
