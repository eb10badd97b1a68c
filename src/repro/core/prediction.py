"""The Prediction step: forecast the next mapped-state, vote on danger.

Per period (§3.2):

* feed the current mapped-state into the trajectory model of the
  current execution mode;
* once the mode's step pdfs have a first approximation, draw
  ``n_samples`` candidate next positions by inverse-transform sampling;
* count how many candidates fall inside a violation-range; when a
  majority does (``(n_samples + 1) // 2`` votes, i.e. 3 of 5), flag an
  impending violation.

The predictor also keeps an accuracy ledger: whenever no action
intervened between a prediction and the next observation, the realized
state is compared against the prediction (both positionally and as a
violation/no-violation outcome) — the basis of the paper's ">90%
accuracy with 5 samples" claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import StayAwayConfig
from repro.core.state_space import StateSpace
from repro.telemetry import Telemetry
from repro.trajectory.modes import ExecutionMode, ModeModelBank

#: Steps a mode's trajectory model needs before its pdfs count as a
#: usable first approximation.
MIN_STEPS_FOR_PREDICTION = 3

@dataclass(frozen=True)
class Prediction:
    """Outcome of one prediction round.

    Attributes
    ----------
    tick:
        Tick the prediction was made at (about the *next* period).
    mode:
        Execution mode whose model produced the forecast.
    candidates:
        ``(n, 2)`` candidate next positions (empty if not ready).
    votes:
        Number of candidates inside a violation-range.
    ready:
        Whether the mode model had enough steps to predict at all.
    impending_violation:
        True when a majority of the candidates voted.
    """

    tick: int
    mode: ExecutionMode
    candidates: np.ndarray
    votes: int
    ready: bool
    impending_violation: bool

    @property
    def expected_position(self) -> Optional[np.ndarray]:
        """Mean of the candidate cloud (None when not ready)."""
        if self.candidates.size == 0:
            return None
        # ``mean(axis=0)`` without its wrapper: the same row-by-row sum.
        return np.add.reduce(self.candidates, axis=0) / self.candidates.shape[0]


@dataclass
class AccuracyRecord:
    """One verifiable prediction vs its realized outcome."""

    tick: int
    mode: ExecutionMode
    predicted_violation: bool
    actual_violation: bool
    position_error: float
    step_scale: float

    @property
    def outcome_correct(self) -> bool:
        return self.predicted_violation == self.actual_violation


class Predictor:
    """Per-mode trajectory learning + majority-vote violation forecasts.

    Parameters
    ----------
    config:
        Tunables; ``config.seed`` seeds the candidate-sampling RNG.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` whose registry holds the
        forecast counters (``prediction.rounds`` / ``.flags`` /
        ``.not_ready`` / ``.samples_drawn``) and the ``prediction.votes``
        histogram; the controller passes its own, a private disabled
        one by default.
    """

    def __init__(self, config: StayAwayConfig, telemetry=None) -> None:
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.modes = ModeModelBank()
        self.accuracy_records: List[AccuracyRecord] = []
        self._pending: Optional[Prediction] = None
        self._pending_invalidated = False
        if telemetry is None:
            telemetry = Telemetry(enabled=False)
        self._c_rounds = telemetry.counter(
            "prediction.rounds", help="prediction rounds attempted"
        )
        self._c_not_ready = telemetry.counter(
            "prediction.not_ready", help="rounds skipped: model still learning"
        )
        self._c_flags = telemetry.counter(
            "prediction.flags", help="impending-violation majority votes"
        )
        self._c_samples = telemetry.counter(
            "prediction.samples_drawn", help="candidate next-states sampled"
        )
        self._h_votes = telemetry.histogram(
            "prediction.votes",
            help="violation-range votes per ready round",
            buckets=tuple(float(v) for v in range(config.n_samples + 1)),
        )

    def _model_mode(self, mode: ExecutionMode) -> ExecutionMode:
        """Which model bucket a mode maps to.

        With ``per_mode_models=False`` (ablation) every observation and
        forecast shares one global model — the configuration the paper
        found inadequate ("no single prediction model can accurately
        model all the state transitions", §3.2.3).
        """
        if self.config.per_mode_models:
            return mode
        return ExecutionMode.COLOCATED

    # -- learning ----------------------------------------------------------
    def observe(
        self,
        tick: int,
        mode: ExecutionMode,
        coords: np.ndarray,
        state_space: StateSpace,
        actually_violated: bool,
    ) -> None:
        """Feed the realized mapped-state; settles any pending prediction."""
        if self._pending is not None and not self._pending_invalidated:
            self._settle(self._pending, coords, actually_violated)
        self._pending = None
        self._pending_invalidated = False
        self.modes.observe(self._model_mode(mode), coords)

    def _settle(
        self, prediction: Prediction, actual: np.ndarray, actually_violated: bool
    ) -> None:
        if not prediction.ready:
            return
        expected = prediction.expected_position
        error = float(np.linalg.norm(actual - expected)) if expected is not None else 0.0
        model = self.modes.model(self._model_mode(prediction.mode))
        self.accuracy_records.append(
            AccuracyRecord(
                tick=prediction.tick,
                mode=prediction.mode,
                predicted_violation=prediction.impending_violation,
                actual_violation=actually_violated,
                position_error=error,
                step_scale=max(model.mean_step_length(), 1e-12),
            )
        )

    def invalidate_pending(self) -> None:
        """Discard the outstanding prediction (an action intervened).

        When Stay-Away throttles, the predicted co-located next state
        never materializes, so comparing it against the post-throttle
        state would be meaningless.
        """
        self._pending_invalidated = True

    # -- forecasting ---------------------------------------------------------
    def predict(
        self, tick: int, mode: ExecutionMode, current: np.ndarray, state_space: StateSpace
    ) -> Prediction:
        """Forecast the next period's state and vote against violation-ranges."""
        model = self.modes.model(self._model_mode(mode))
        if not model.ready(MIN_STEPS_FOR_PREDICTION):
            prediction = Prediction(
                tick=tick,
                mode=mode,
                candidates=np.empty((0, 2)),
                votes=0,
                ready=False,
                impending_violation=False,
            )
            self._c_not_ready.inc()
        else:
            candidates = model.predict_candidates(
                current, self.rng, self.config.n_samples
            )
            votes = state_space.violation_vote(candidates)
            impending = votes >= (self.config.n_samples + 1) // 2
            prediction = Prediction(
                tick=tick,
                mode=mode,
                candidates=candidates,
                votes=votes,
                ready=True,
                impending_violation=impending,
            )
            self._c_samples.inc(len(candidates))
            self._h_votes.observe(float(votes))
            if impending:
                self._c_flags.inc()
        self._c_rounds.inc()
        self._pending = prediction
        self._pending_invalidated = False
        return prediction

    # -- accuracy ledger -------------------------------------------------------
    def outcome_accuracy(self) -> float:
        """Fraction of settled predictions whose violation verdict was right."""
        if not self.accuracy_records:
            return 0.0
        correct = sum(1 for record in self.accuracy_records if record.outcome_correct)
        return correct / len(self.accuracy_records)

    def position_accuracy(self, tolerance_steps: float = 2.0) -> float:
        """Fraction of settled predictions within ``tolerance_steps`` mean steps."""
        if not self.accuracy_records:
            return 0.0
        hits = sum(
            1
            for record in self.accuracy_records
            if record.position_error <= tolerance_steps * record.step_scale
        )
        return hits / len(self.accuracy_records)
