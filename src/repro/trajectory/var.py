"""Vector autoregression: the high-dimensional forecaster foil (§3.1).

The paper motivates the 2-D representation by contrast with VAR: "A
natural technique for forecasting in high dimensions is Vector
Autoregressive Models (VAR). In high dimensional spaces, the number of
samples needed for a reliable estimation of parameters ... increases
exponentially with the dimensionality ... leading to unreliable
parameter estimation."

This module implements a least-squares VAR(p) so that claim can be
tested empirically (see the VAR ablation bench): parameter count grows
as ``p * d^2``, so with the short sample windows a runtime controller
has, the high-dimensional VAR overfits while the paper's 2-D
trajectory sampler stays reliable.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np


class VectorAutoregression:
    """VAR(p): x_t = c + A_1 x_{t-1} + ... + A_p x_{t-p} + noise.

    Parameters
    ----------
    order:
        Number of lags ``p``.
    ridge:
        Small L2 regularization on the least-squares fit (keeps the
        normal equations solvable for short samples).
    """

    def __init__(self, order: int = 1, ridge: float = 1e-8) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if ridge < 0:
            raise ValueError("ridge must be non-negative")
        self.order = order
        self.ridge = ridge
        self.coefficients: Optional[np.ndarray] = None  # (p*d + 1, d)
        self.dimension: Optional[int] = None

    def _design(self, series: np.ndarray) -> np.ndarray:
        n = series.shape[0]
        rows: List[np.ndarray] = []
        for t in range(self.order, n):
            lagged = [series[t - lag] for lag in range(1, self.order + 1)]
            rows.append(np.concatenate([np.ones(1), *lagged]))
        return np.asarray(rows)

    def fit(self, series: np.ndarray) -> "VectorAutoregression":
        """Least-squares fit on an ``(n, d)`` multivariate series."""
        series = np.asarray(series, dtype=float)
        if series.ndim != 2:
            raise ValueError(f"series must be 2-D, got shape {series.shape}")
        n, d = series.shape
        if n <= self.order:
            raise ValueError(
                f"need more than order={self.order} samples, got {n}"
            )
        self.dimension = d
        design = self._design(series)
        targets = series[self.order:]
        gram = design.T @ design + self.ridge * np.eye(design.shape[1])
        self.coefficients = np.linalg.solve(gram, design.T @ targets)
        return self

    def predict_next(self, history: np.ndarray) -> np.ndarray:
        """One-step-ahead forecast from the last ``order`` observations."""
        if self.coefficients is None:
            raise RuntimeError("fit the model first")
        history = np.asarray(history, dtype=float)
        if history.ndim != 2 or history.shape[0] < self.order:
            raise ValueError(
                f"need at least {self.order} history rows, got {history.shape}"
            )
        if history.shape[1] != self.dimension:
            raise ValueError(
                f"history dimension {history.shape[1]} != fitted {self.dimension}"
            )
        lagged = [history[-lag] for lag in range(1, self.order + 1)]
        row = np.concatenate([np.ones(1), *lagged])
        return row @ self.coefficients


def rolling_var_forecast_error(
    series: np.ndarray,
    order: int = 1,
    train_window: int = 30,
    ridge: float = 1e-6,
) -> np.ndarray:
    """Walk-forward one-step VAR forecast errors.

    For each t, fit VAR(order) on the preceding ``train_window``
    samples and forecast x_t; returns the Euclidean errors. This is the
    honest runtime-controller setting (small samples, online), where
    high-dimensional VAR suffers exactly as §3.1 predicts.
    """
    series = np.asarray(series, dtype=float)
    n = series.shape[0]
    errors: List[float] = []
    for t in range(train_window, n):
        window = series[t - train_window:t]
        try:
            model = VectorAutoregression(order=order, ridge=ridge).fit(window)
            forecast = model.predict_next(window)
        except (ValueError, np.linalg.LinAlgError):
            continue
        errors.append(float(np.linalg.norm(forecast - series[t])))
    return np.asarray(errors)
