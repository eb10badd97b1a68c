"""Unit tests for the predictor."""

import numpy as np
import pytest

from repro.core.config import StayAwayConfig
from repro.core.prediction import Predictor
from repro.core.state_space import StateSpace
from repro.trajectory.modes import ExecutionMode


def make_space_with_violation():
    """A state space: safe cluster at origin, violation at (1, 0)-ish."""
    space = StateSpace(epsilon=0.01, refit_interval=1000)
    space.add_sample(np.array([0.0, 0.0]), violated=False)
    space.add_sample(np.array([0.1, 0.0]), violated=False)
    space.add_sample(np.array([1.0, 0.0]), violated=True)
    return space


def feed_straight_walk(predictor, space, mode, start, step, n):
    """Observe a straight-line trajectory moving by `step` per period."""
    point = np.asarray(start, float)
    for tick in range(n):
        predictor.observe(tick, mode, point, space, actually_violated=False)
        predictor.predict(tick, mode, point, space)
        point = point + step
    return point


class TestReadiness:
    def test_not_ready_without_steps(self):
        config = StayAwayConfig()
        predictor = Predictor(config)
        space = make_space_with_violation()
        prediction = predictor.predict(
            0, ExecutionMode.COLOCATED, np.zeros(2), space
        )
        assert not prediction.ready
        assert not prediction.impending_violation
        assert prediction.candidates.size == 0
        assert prediction.expected_position is None

    def test_ready_after_min_steps(self):
        config = StayAwayConfig()
        predictor = Predictor(config)
        space = make_space_with_violation()
        feed_straight_walk(
            predictor, space, ExecutionMode.COLOCATED,
            start=[0.0, 0.0], step=[0.01, 0.0], n=5,
        )
        prediction = predictor.predict(
            9, ExecutionMode.COLOCATED, np.array([0.05, 0.0]), space
        )
        assert prediction.ready
        assert prediction.candidates.shape == (config.n_samples, 2)


class TestViolationForecast:
    def test_walk_toward_violation_trips_majority(self):
        config = StayAwayConfig(seed=3)
        predictor = Predictor(config)
        space = make_space_with_violation()
        violation_coord = space.coords[2]
        safe_coord = space.coords[0]
        direction = (violation_coord - safe_coord)
        direction /= np.linalg.norm(direction)
        step = direction * 0.12
        # Walk from the safe cluster straight at the violation state.
        point = safe_coord.copy()
        tripped = False
        for tick in range(12):
            predictor.observe(tick, ExecutionMode.COLOCATED, point, space, False)
            prediction = predictor.predict(tick, ExecutionMode.COLOCATED, point, space)
            if prediction.impending_violation:
                tripped = True
                break
            point = point + step
        assert tripped

    def test_walk_away_from_violation_never_trips(self):
        config = StayAwayConfig(seed=4)
        predictor = Predictor(config)
        space = make_space_with_violation()
        safe_coord = space.coords[0]
        violation_coord = space.coords[2]
        direction = safe_coord - violation_coord
        direction /= np.linalg.norm(direction)
        point = safe_coord.copy()
        for tick in range(12):
            predictor.observe(tick, ExecutionMode.COLOCATED, point, space, False)
            prediction = predictor.predict(tick, ExecutionMode.COLOCATED, point, space)
            assert not prediction.impending_violation
            point = point + direction * 0.1


class TestAccuracyLedger:
    def test_settled_predictions_recorded(self):
        config = StayAwayConfig()
        predictor = Predictor(config)
        space = make_space_with_violation()
        feed_straight_walk(
            predictor, space, ExecutionMode.COLOCATED,
            start=[0.0, 0.0], step=[0.005, 0.0], n=10,
        )
        # Predictions settle only after the model was ready.
        assert len(predictor.accuracy_records) > 0
        assert 0.0 <= predictor.outcome_accuracy() <= 1.0
        assert 0.0 <= predictor.position_accuracy() <= 1.0

    def test_straight_walk_is_predictable(self):
        config = StayAwayConfig()
        predictor = Predictor(config)
        space = make_space_with_violation()
        feed_straight_walk(
            predictor, space, ExecutionMode.SENSITIVE_ONLY,
            start=[-1.0, -1.0], step=[0.004, 0.0], n=40,
        )
        assert predictor.outcome_accuracy() > 0.9
        assert predictor.position_accuracy(tolerance_steps=2.0) > 0.8

    def test_invalidate_pending_skips_settlement(self):
        config = StayAwayConfig()
        predictor = Predictor(config)
        space = make_space_with_violation()
        feed_straight_walk(
            predictor, space, ExecutionMode.COLOCATED,
            start=[0.0, 0.0], step=[0.005, 0.0], n=6,
        )
        settled_before = len(predictor.accuracy_records)
        predictor.predict(100, ExecutionMode.COLOCATED, np.zeros(2), space)
        predictor.invalidate_pending()
        predictor.observe(
            101, ExecutionMode.SENSITIVE_ONLY, np.array([9.0, 9.0]), space, False
        )
        assert len(predictor.accuracy_records) == settled_before

    def test_empty_ledger_accuracy_zero(self):
        predictor = Predictor(StayAwayConfig())
        assert predictor.outcome_accuracy() == 0.0
        assert predictor.position_accuracy() == 0.0


class FixedVoteSpace:
    """Test double: a state space whose vote count is dialed in."""

    def __init__(self, votes):
        self.votes = votes

    def violation_vote(self, candidates):
        return self.votes


def ready_predictor(n_samples=5):
    config = StayAwayConfig(n_samples=n_samples, seed=1)
    predictor = Predictor(config)
    space = make_space_with_violation()
    feed_straight_walk(
        predictor, space, ExecutionMode.COLOCATED,
        start=[0.0, 0.0], step=[0.01, 0.0], n=6,
    )
    return predictor


class TestVoteThreshold:
    """A violation is flagged when "a majority of the generated sample
    set" votes: ``(n_samples + 1) // 2`` votes, the ceiling of half."""

    @pytest.mark.parametrize(
        "n_samples,needed", [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (8, 4), (15, 8)]
    )
    def test_flag_exactly_at_majority(self, n_samples, needed):
        predictor = ready_predictor(n_samples)
        below = predictor.predict(
            100, ExecutionMode.COLOCATED, np.zeros(2), FixedVoteSpace(needed - 1)
        )
        assert not below.impending_violation
        at = predictor.predict(
            101, ExecutionMode.COLOCATED, np.zeros(2), FixedVoteSpace(needed)
        )
        assert at.impending_violation

    def test_default_majority_unchanged(self):
        # The paper's configuration (majority of 5 samples) needs 3 votes.
        predictor = ready_predictor()
        flags = [
            predictor.predict(
                100 + votes, ExecutionMode.COLOCATED, np.zeros(2), FixedVoteSpace(votes)
            ).impending_violation
            for votes in range(6)
        ]
        assert flags == [False, False, False, True, True, True]
