"""Euclidean distance computations used by the MDS stack."""

from __future__ import annotations

import numpy as np


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix.

    Parameters
    ----------
    points:
        ``(n, d)`` array of row vectors.

    Returns
    -------
    ``(n, n)`` matrix with zeros on the diagonal.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {points.shape}")
    squared = np.sum(points**2, axis=1)
    gram = points @ points.T
    d2 = squared[:, None] + squared[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    distances = np.sqrt(d2)
    np.fill_diagonal(distances, 0.0)
    return distances


def point_distances(point: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from one point to each row of ``points``."""
    point = np.asarray(point, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {points.shape}")
    if point.shape != (points.shape[1],):
        raise ValueError(
            f"point dimension {point.shape} incompatible with points {points.shape}"
        )
    deltas = points - point[None, :]
    return np.sqrt(np.sum(deltas**2, axis=1))
