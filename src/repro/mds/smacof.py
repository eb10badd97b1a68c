"""SMACOF: Scaling by MAjorizing a COmplicated Function.

The paper minimizes the stress loss "by using Scaling by majorizing a
convex function (SMACOF) algorithm, which minimizes a quadratic form
iteratively" (§2.2). Each iteration applies the Guttman transform

    X_{k+1} = (1/n) * B(X_k) @ X_k

where ``B`` is built from the ratios between target dissimilarities and
current embedding distances; stress is guaranteed non-increasing.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.mds.classical import classical_mds
from repro.mds.distances import pairwise_distances
from repro.mds.stress import raw_stress


class SmacofResult(NamedTuple):
    """Outcome of a SMACOF run.

    Attributes
    ----------
    embedding:
        ``(n, n_components)`` final coordinates.
    stress:
        Final raw stress value.
    iterations:
        Guttman iterations actually executed.
    converged:
        True when the relative stress improvement dropped below the
        tolerance before ``max_iter`` was exhausted.
    """

    embedding: np.ndarray
    stress: float
    iterations: int
    converged: bool


def _guttman_transform(
    embedding: np.ndarray, target: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """One Guttman majorization step."""
    n = embedding.shape[0]
    current = pairwise_distances(embedding)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(current > eps, target / np.maximum(current, eps), 0.0)
    b = -ratio
    np.fill_diagonal(b, 0.0)
    diagonal = -b.sum(axis=1)
    b[np.diag_indices(n)] = diagonal
    return (b @ embedding) / n


def smacof(
    distances: np.ndarray,
    n_components: int = 2,
    init: Optional[np.ndarray] = None,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> SmacofResult:
    """Minimize stress by majorization.

    Parameters
    ----------
    distances:
        Symmetric ``(n, n)`` target dissimilarity matrix.
    n_components:
        Embedding dimensionality (2 in the paper).
    init:
        Optional initial configuration; defaults to classical MDS.
        Passing the previous map keeps successive refits continuous.
    max_iter / tol:
        Stop after ``max_iter`` iterations or when the relative stress
        improvement falls below ``tol``.

    Notes
    -----
    Stress is non-increasing across iterations (majorization
    guarantee); tests assert this invariant. The solve records no
    metrics: :meth:`~repro.core.state_space.StateSpace.refit` counts
    the :class:`SmacofResult` it receives (``smacof.*``).
    """
    target = np.asarray(distances, dtype=float)
    if target.ndim != 2 or target.shape[0] != target.shape[1]:
        raise ValueError(f"distances must be square, got shape {target.shape}")
    n = target.shape[0]
    if n == 0:
        return SmacofResult(np.empty((0, n_components)), 0.0, 0, True)
    if n == 1:
        return SmacofResult(np.zeros((1, n_components)), 0.0, 0, True)

    if init is None:
        embedding = classical_mds(target, n_components)
    else:
        embedding = np.array(init, dtype=float, copy=True)
        if embedding.shape != (n, n_components):
            raise ValueError(
                f"init shape {embedding.shape} does not match ({n}, {n_components})"
            )

    stress = raw_stress(embedding, target)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        embedding = _guttman_transform(embedding, target)
        new_stress = raw_stress(embedding, target)
        if stress > 0 and (stress - new_stress) / stress < tol:
            stress = new_stress
            converged = True
            break
        stress = new_stress
        if stress <= 0.0:
            converged = True
            break
    return SmacofResult(
        embedding=embedding, stress=stress, iterations=iterations, converged=converged
    )
