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
            (x, y), (last_x, last_y) = point.tolist(), self._last_point.tolist()
            dx, dy = x - last_x, y - last_y
            self.distances.add(float(np.hypot(dx, dy)))
            self.angles.add(float(np.arctan2(dy, dx)))
            self.steps_observed += 1
        # An owned read-only array cannot change under us: keep it.
        if point.flags.writeable or point.base is not None:
            point = point.copy()
            point.flags.writeable = False
        self._last_point = point

    def break_continuity(self) -> None:
        """Forget the last reference point (called on mode switches)."""
        self._last_point = None

    @property
    def last_point(self) -> Optional[np.ndarray]:
        """Most recent observed position, read-only (None right after a mode switch)."""
        return self._last_point

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
        rows = iter(rng.uniform(0.0, 1.0, size=(2 * live, n)).tolist())
        distances, angles = (
            np.zeros(n)
            if hist is None
            else np.array(hist.inverse_transform(next(rows), next(rows)))
            for hist in histograms
        )
        steps = np.empty((n, 2))
        steps[:, 0] = distances * np.cos(angles)
        steps[:, 1] = distances * np.sin(angles)
        return steps

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
        return current + self.sample_steps(rng, n)

    def mean_step_length(self) -> float:
        """Average observed step length (0 before any step)."""
        return self.distances.mean()
