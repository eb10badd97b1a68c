"""Per-mode trajectory model: learn step pdfs, sample candidate states.

This is the predictor's forecasting engine (§3.2.3): for the current
execution mode, maintain empirical distributions of step distance and
absolute angle, and generate a small set of candidate next positions by
inverse-transform sampling — "with 5 samples to model uncertainty, we
are able to achieve more than 90% accuracy on average".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trajectory.histograms import EmpiricalDistribution


class TrajectoryModel:
    """Step-distance and absolute-angle distributions for one mode.

    Parameters
    ----------
    window:
        How many recent steps to retain (drifting applications age out).
    bins:
        Histogram resolution for both parameters.
    """

    def __init__(self, window: int = 400, bins: int = 16) -> None:
        self.distances = EmpiricalDistribution(window=window, bins=bins, low=0.0)
        self.angles = EmpiricalDistribution(
            window=window, bins=bins, low=-np.pi, high=np.pi
        )
        self.steps_observed = 0
        self._last_point: Optional[np.ndarray] = None

    # -- learning --------------------------------------------------------
    def observe(self, point: np.ndarray) -> None:
        """Feed the next mapped position of this mode's trajectory.

        The first observation after a mode switch only sets the
        reference point; from the second on, (distance, angle) step
        features are recorded.
        """
        point = np.asarray(point, dtype=float)
        if point.shape != (2,):
            raise ValueError(f"expected a 2-D point, got shape {point.shape}")
        if self._last_point is not None:
            delta = point - self._last_point
            distance = float(np.hypot(delta[0], delta[1]))
            angle = float(np.arctan2(delta[1], delta[0]))
            self.distances.add(distance)
            self.angles.add(angle)
            self.steps_observed += 1
        self._last_point = point.copy()

    def break_continuity(self) -> None:
        """Forget the last reference point (called on mode switches)."""
        self._last_point = None

    @property
    def last_point(self) -> Optional[np.ndarray]:
        """Most recent observed position (None right after a mode switch)."""
        return None if self._last_point is None else self._last_point.copy()

    def ready(self, minimum_steps: int = 3) -> bool:
        """True once both parameter pdfs have a first approximation."""
        return self.distances.ready(minimum_steps) and self.angles.ready(minimum_steps)

    # -- forecasting -------------------------------------------------------
    def sample_steps(self, rng: np.random.Generator, n: int = 5) -> np.ndarray:
        """Draw ``n`` (dx, dy) displacement samples from the learned pdfs.

        All of a period's randomness is one ``(4, N)`` uniform draw
        whose rows are, in order: distance bin, distance offset, angle
        bin, angle offset. ``Generator.uniform`` fills in C order, so
        the rows are exactly the four ``(N,)`` draws of
        ``distances.sample(rng, n)`` followed by ``angles.sample(rng,
        n)``, and the stream ends in the same state. An empty
        distribution gets no rows and yields zeros, as its own
        :meth:`~EmpiricalDistribution.sample` does.

        Returns the ``(N, 2)`` steps.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        # Histograms first: a non-finite window must raise before the
        # stream moves.
        histograms = [
            part.histogram() if len(part) else None
            for part in (self.distances, self.angles)
        ]
        live = sum(1 for hist in histograms if hist is not None)
        rows = iter(rng.uniform(0.0, 1.0, size=(2 * live, n)))
        distances, angles = (
            np.zeros(n) if hist is None else hist.inverse_transform(next(rows), next(rows))
            for hist in histograms
        )
        return np.column_stack(
            [distances * np.cos(angles), distances * np.sin(angles)]
        )

    def predict_candidates(
        self,
        current: np.ndarray,
        rng: np.random.Generator,
        n: int = 5,
    ) -> np.ndarray:
        """``n`` candidate next positions around ``current``.

        "This allows us to predict a set of new states around the
        current state and models the uncertainty in the likely position
        of the future state" (§3.2.3).
        """
        current = np.asarray(current, dtype=float)
        if current.shape != (2,):
            raise ValueError(f"expected a 2-D point, got shape {current.shape}")
        return current[None, :] + self.sample_steps(rng, n)

    def mean_step_length(self) -> float:
        """Average observed step length (0 before any step)."""
        return self.distances.mean()
