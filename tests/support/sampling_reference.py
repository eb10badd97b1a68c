"""The parent's array inverse-transform chain, kept verbatim as a test oracle.

Until PR 23 ``Histogram.inverse_transform`` mapped uniforms to samples
with four NumPy calls — ``probabilities`` -> ``cdf`` ->
``searchsorted(side="right")`` -> offset inside the bin — and
``TrajectoryModel.sample_steps`` (whose steps ``predict_candidates``
added to the current position) fed it the rows of one ``(2 * live,
n)`` uniform draw. The bodies below are the ones the parent commit
(bb317b0) ran, as functions of the histogram / model instead of
methods. Nothing under ``src/`` imports this module; the sampling
suites drive it side by side with the float kernel and demand equal
samples, bit for bit, and an equal generator state afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.trajectory.histograms import Histogram
from repro.trajectory.sampling import TrajectoryModel


def reference_probabilities(hist: Histogram) -> np.ndarray:
    """Per-bin probability mass (uniform when nothing observed yet)."""
    total = float(hist.counts.sum())
    if total <= 0:
        return np.full(hist.bins, 1.0 / hist.bins)
    return hist.counts / total


def reference_cdf(hist: Histogram) -> np.ndarray:
    """Cumulative distribution over bins (last entry == 1)."""
    cdf = np.cumsum(reference_probabilities(hist))
    cdf[-1] = 1.0
    return cdf


def reference_inverse_transform(
    hist: Histogram, u_bin: np.ndarray, u_offset: np.ndarray
) -> np.ndarray:
    """``(N,)`` samples for ``(N,)`` bin and offset uniforms."""
    # searchsorted never goes below 0; only u_bin >= 1 could overshoot.
    indices = np.minimum(
        np.searchsorted(reference_cdf(hist), u_bin, side="right"), hist.bins - 1
    )
    left = hist.edges[indices]
    right = hist.edges[indices + 1]
    return left + u_offset * (right - left)


def reference_sample_steps(
    model: TrajectoryModel, rng: np.random.Generator, n: int = 5
) -> np.ndarray:
    """The ``(N, 2)`` steps ``model.sample_steps(rng, n)`` drew at the parent:
    ``model.predict_candidates(current, rng, n)`` is ``current`` plus them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # Histograms first: a non-finite window must raise before the
    # stream moves.
    histograms = [
        part.histogram() if len(part) else None
        for part in (model.distances, model.angles)
    ]
    live = sum(1 for hist in histograms if hist is not None)
    rows = iter(rng.uniform(0.0, 1.0, size=(2 * live, n)))
    distances, angles = (
        np.zeros(n)
        if hist is None
        else reference_inverse_transform(hist, next(rows), next(rows))
        for hist in histograms
    )
    return np.column_stack(
        [distances * np.cos(angles), distances * np.sin(angles)]
    )


def drawn_steps(
    model: TrajectoryModel, rng: np.random.Generator, n: int = 5
) -> np.ndarray:
    """The ``(N, 2)`` steps of one :meth:`TrajectoryModel._draw`, formed as
    ``sample_steps`` formed them: the columns ``d·cos a`` and ``d·sin a``.

    Unlike the functions above this runs the draw under test. It lets a
    suite compare the steps bit for bit before ``current +`` rounds
    them, and ``current + drawn_steps(...)`` is the array spelling of
    the candidate tail.
    """
    distances, angles = model._draw(rng, n)
    distances = np.array(distances)
    steps = np.empty((n, 2))
    steps[:, 0] = distances * np.cos(angles)
    steps[:, 1] = distances * np.sin(angles)
    return steps
