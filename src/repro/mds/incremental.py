"""Incremental (out-of-sample) MDS placement and map alignment.

Refitting SMACOF from scratch every period is quadratic in the number
of observed states; the paper notes that incremental MDS variants exist
"with high performance and very low overhead" (§4, citing [32, 35]).
We hold the existing ("anchor") map fixed and minimize, over the new
point's 2-D coordinates ``x`` only,

    sum_j (|x - y_j| - delta_j)^2

where ``delta_j`` are the high-dimensional distances from the new
sample to each anchor. The single-point Guttman update of the
majorization literature is Newton's step on this stress with the
Hessian replaced by ``n I``: always downhill, but only linearly
convergent. :func:`place_point` keeps that step as the most cautious
end of one damped second-order loop — ``(M + lambda I)^-1 J^T r`` with
``lambda`` starting at ``n`` and shrinking while steps keep lowering
the stress, ``M`` the exact Hessian wherever it is positive definite —
so it starts as safely and finishes quadratically.

The objective is non-convex, so the loop runs from several starts, all
at once as rows of one ``(S, 2)`` array, and keeps the best (see
"Placement kernel" in ``docs/ARCHITECTURE.md``).

:func:`procrustes_align` keeps the map visually and semantically stable
across occasional full refits: the refit configuration is rotated /
reflected / translated onto the previous one, so violation-range
geometry carries over.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

#: Floor under a point-to-anchor distance before dividing by it.
_MIN_DISTANCE = 1e-12
#: Damping multipliers after an accepted / a rejected step.
_DAMPING_SHRINK = 0.1
_DAMPING_GROW = 8.0
#: Floor under the damping, keeping the 2x2 system solvable.
_MIN_DAMPING = 1e-12


def place_point(
    anchors_2d: np.ndarray,
    deltas: np.ndarray,
    init: Optional[np.ndarray] = None,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> np.ndarray:
    """Place one new point against a fixed 2-D anchor configuration.

    Parameters
    ----------
    anchors_2d:
        ``(n, 2)`` fixed coordinates of already-mapped states. Must be
        finite; with two or more anchors the map must be 2-D (the
        ``n == 0`` / ``n == 1`` closed forms honour any column count).
    deltas:
        ``(n,)`` target (high-dimensional) distances from the new
        sample to each anchor; finite and non-negative.
    init:
        Starting guess (finite). When absent the optimiser starts from
        six points around the nearest anchor and the anchor centroid
        plus the two-circle intersections of the widest anchor pair,
        and returns the lowest-stress result (first one on ties).
    max_iter:
        Most damped steps, taken or rejected, any start may try.
    tol:
        A start stops once its step is shorter than this (map units).

    Raises
    ------
    ValueError
        On a shape mismatch, a negative or non-finite input, or when no
        start reaches a finite stress (magnitudes that overflow).
    """
    anchors, deltas, init = _checked_inputs(anchors_2d, deltas, init)
    if anchors.shape[0] < 2:
        return _place_trivial(anchors, deltas, init)
    if init is not None:
        starts = init[None, :]
    else:
        starts = _multi_starts(anchors, deltas)
    placed, stress = _descend(starts, anchors, deltas, max_iter, tol)
    # First strict minimum; a NaN or infinite stress never wins.
    ranked = np.where(stress < np.inf, stress, np.inf)
    best = int(np.argmin(ranked))
    if ranked[best] == np.inf:
        raise ValueError("no start reached a finite placement stress")
    return placed[best].copy()


def _checked_inputs(
    anchors_2d: np.ndarray, deltas: np.ndarray, init: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Validate and convert the arguments of :func:`place_point`.

    Non-finite values are rejected here, by name: a poisoned
    representative would otherwise turn every start's stress into NaN
    and surface as "no start reached a finite stress".
    """
    anchors = np.asarray(anchors_2d, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if anchors.ndim != 2:
        raise ValueError(f"anchors must be 2-D, got shape {anchors.shape}")
    n = anchors.shape[0]
    if deltas.shape != (n,):
        raise ValueError(f"expected {n} deltas, got shape {deltas.shape}")
    if not np.all(np.isfinite(anchors)):
        raise ValueError("anchors must be finite")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("deltas must be finite")
    if np.any(deltas < 0):
        raise ValueError("target distances must be non-negative")
    if init is not None:
        init = np.array(init, dtype=float, copy=True)
        if not np.all(np.isfinite(init)):
            raise ValueError("init must be finite")
    if n >= 2:
        # The multi-start offsets and the trilateration normal are
        # planar constructions.
        if anchors.shape[1] != 2:
            raise ValueError(
                f"placement against {n} anchors needs an (n, 2) map, "
                f"got shape {anchors.shape}"
            )
        if init is not None and init.shape != (2,):
            raise ValueError(f"init must have shape (2,), got {init.shape}")
    return anchors, deltas, init


def _place_trivial(
    anchors: np.ndarray, deltas: np.ndarray, init: Optional[np.ndarray]
) -> np.ndarray:
    """Closed-form placement against zero or one anchor."""
    dim = anchors.shape[1] if anchors.shape[1] else 2
    if anchors.shape[0] == 0:
        return init if init is not None else np.zeros(dim)
    # Any point at distance delta from the anchor works. Honor the
    # caller's init by placing along the anchor->init direction;
    # fall back to +x for determinism when init is absent or
    # coincides with the anchor.
    direction = np.zeros(dim)
    direction[0] = 1.0
    if init is not None:
        offset = init - anchors[0]
        norm = float(np.linalg.norm(offset))
        if norm > 1e-12:
            direction = offset / norm
    return anchors[0] + deltas[0] * direction


# -- batched kernel ------------------------------------------------------------
def _multi_starts(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The default starts as rows: six fixed ones, then trilateration.

    Symmetric anchor configurations (e.g. collinear anchors) have
    mirror optima separated by a slow-escape ridge; starting on several
    sides of the nearest anchor avoids it.

    Parameters
    ----------
    anchors:
        ``(N, D)`` anchor coordinates, ``D == 2``.
    deltas:
        ``(N,)`` target distances.
    """
    base = anchors[int(np.argmin(deltas))]
    scale = max(float(deltas.max()), 1e-3)
    offsets = np.array(
        [[1e-6, 1e-6], [scale, 0.0], [-scale, 0.0], [0.0, scale], [0.0, -scale]]
    )
    return np.vstack(
        [base + offsets, anchors.mean(axis=0), *_trilateration_starts(anchors, deltas)]
    )


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-equal to ``np.linalg.norm(row)``.

    ``np.linalg.norm`` of a vector is ``sqrt(row.dot(row))`` and BLAS
    dot products may fuse the multiply-add; a ``(1, D) @ (D, 1)``
    matmul runs that same dot once per row, where a square-and-sum
    would round differently in the last bit.

    Parameters
    ----------
    rows:
        ``(S, D)`` row vectors.
    """
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])


def _trilateration_starts(anchors: np.ndarray, deltas: np.ndarray) -> List[np.ndarray]:
    """Two-circle intersection starts from the widest anchor pair.

    Multilateration stress is non-convex and has genuine local minima;
    when the target distances are realizable, the intersections of the
    two widest anchors' circles contain the global optimum, so seeding
    the local optimizer there makes placement exact.

    Parameters
    ----------
    anchors:
        ``(N, D)`` anchor coordinates, ``D == 2``, ``N >= 2``.
    deltas:
        ``(N,)`` target distances.
    """
    # All i < j pairs in row-major order, so argmax's first maximum is
    # the pair a nested ``sep > best`` scan would keep.
    first, second = np.triu_indices(anchors.shape[0], 1)
    separations = _row_norms(anchors[first] - anchors[second])
    widest = int(np.argmax(separations))
    d = float(separations[widest])
    if d <= 1e-12:
        return []
    i, j = int(first[widest]), int(second[widest])
    a, b = anchors[i], anchors[j]
    ra, rb = float(deltas[i]), float(deltas[j])
    # Projection of the intersection chord onto the a->b axis.
    along = (ra * ra - rb * rb + d * d) / (2.0 * d)
    height_sq = ra * ra - along * along
    axis = (b - a) / d
    normal = np.array([-axis[1], axis[0]])
    foot = a + along * axis
    if height_sq <= 0:
        return [foot]
    height = np.sqrt(height_sq)
    return [foot + height * normal, foot - height * normal]


class _AnchorFrame:
    """Per-call buffers for scoring ``S`` iterates against ``N`` anchors.

    Every array operation of the kernel writes into these, so one
    iteration is a fixed number of ufunc calls and no allocation. They
    live for one :func:`place_point` call only.

    Parameters
    ----------
    anchors:
        ``(N, D)`` anchor coordinates, ``D == 2``.
    deltas:
        ``(N,)`` target distances.
    """

    def __init__(self, n_starts: int, anchors: np.ndarray, deltas: np.ndarray) -> None:
        n = anchors.shape[0]
        self.anchors = anchors
        self.deltas = deltas
        self._offsets = np.empty((n_starts, n, 2))
        self._squares = np.empty((n_starts, n, 2))
        self._distances = np.empty((n_starts, n))
        self._weights = np.empty((n_starts, n))
        # One matmul operand, by columns: the unit directions u (0:2),
        # the same scaled by w = delta / d (2:4), the residuals (4).
        self._columns = np.empty((n_starts, n, 5))
        self._directions = self._columns[:, :, 0:2]
        self._weighted = self._columns[:, :, 2:4]
        self._residuals = self._columns[:, :, 4]
        # ... and its product with u^T: J^T J, sum w u u^T, J^T r.
        self._products = np.empty((n_starts, 2, 5))
        self._hessian = self._products[:, :, 2:4]
        self._hessian_diagonal = np.einsum("sii->si", self._hessian)
        self._spare = np.empty(n_starts)
        self._definite = np.empty(n_starts, dtype=bool)
        #: ``(S,)`` residual stress of the iterates last evaluated.
        self.stress = np.empty(n_starts)
        #: ``(S, 2)`` half gradient ``J^T r`` of that stress.
        self.gradient = np.empty((n_starts, 2))
        #: ``(S, 2, 2)`` curvature: the exact half Hessian where it is
        #: positive definite, the Gauss-Newton ``J^T J`` elsewhere.
        self.curvature = np.empty((n_starts, 2, 2))

    def evaluate(self, x: np.ndarray) -> None:
        """Fill ``stress``, ``gradient`` and ``curvature`` for iterates ``x``.

        With unit directions ``u_j`` and ``w_j = delta_j / d_j`` the
        half Hessian of the stress is ``sum_j (1 - w_j) I + w_j u_j
        u_j^T``; an iterate sitting on an anchor has ``u_j = 0`` there.

        Parameters
        ----------
        x:
            ``(S, D)`` iterates to score, ``D == 2``.
        """
        distances, residuals, weights = self._distances, self._residuals, self._weights
        np.subtract(x[:, None, :], self.anchors, out=self._offsets)
        np.square(self._offsets, out=self._squares)
        np.add(self._squares[:, :, 0], self._squares[:, :, 1], out=distances)
        np.sqrt(distances, out=distances)
        np.subtract(distances, self.deltas, out=residuals)
        np.maximum(distances, _MIN_DISTANCE, out=distances)
        np.divide(self._offsets, distances[:, :, None], out=self._directions)
        np.divide(self.deltas, distances, out=weights)
        np.multiply(self._directions, weights[:, :, None], out=self._weighted)
        np.matmul(self._directions.transpose(0, 2, 1), self._columns, out=self._products)
        np.multiply(residuals, residuals, out=distances)
        np.add.reduce(distances, axis=1, out=self.stress)
        self.gradient[...] = self._products[:, :, 4]

        hessian = self._hessian
        np.add.reduce(weights, axis=1, out=self._spare)
        np.subtract(self.anchors.shape[0], self._spare, out=self._spare)
        self._hessian_diagonal += self._spare[:, None]
        determinant = hessian[:, 0, 0] * hessian[:, 1, 1]
        determinant -= hessian[:, 0, 1] * hessian[:, 1, 0]
        np.greater(determinant, 0.0, out=self._definite)
        self._definite &= hessian[:, 0, 0] > 0.0
        self.curvature[...] = self._products[:, :, 0:2]
        np.copyto(self.curvature, hessian, where=self._definite[:, None, None])


def _descend(
    starts: np.ndarray,
    anchors: np.ndarray,
    deltas: np.ndarray,
    max_iter: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Damped second-order descent of every start at once.

    Returns the ``(S, 2)`` final iterates and their ``(S,)`` stresses.
    Each row steps by ``(M + lambda I)^-1 J^T r`` with ``M`` the
    frame's curvature. ``lambda`` starts at ``n``, where the step
    matrix dominates the ``n I`` of the single-point Guttman update and
    so inherits the majorization's descent guarantee; a step that does
    not raise the stress is taken and shrinks ``lambda`` (towards
    Newton's step, which converges quadratically), one that does is
    retried from the same point with more damping. A row stops once
    its step is shorter than ``tol``; rows are independent, a stopped
    one is carried through the array operations but never written.

    Parameters
    ----------
    starts:
        ``(S, D)`` initial iterates, ``D == 2``.
    anchors:
        ``(N, D)`` fixed anchor coordinates.
    deltas:
        ``(N,)`` target distances.
    """
    n_starts = starts.shape[0]
    frame = _AnchorFrame(n_starts, anchors, deltas)
    x = np.array(starts, dtype=float, copy=True)
    frame.evaluate(x)
    stress = frame.stress.copy()
    gradient = frame.gradient.copy()
    curvature = frame.curvature.copy()
    damping = np.full(n_starts, float(anchors.shape[0]))
    active = np.ones(n_starts, dtype=bool)
    accepted = np.empty(n_starts, dtype=bool)
    candidate = np.empty_like(x)
    step = np.empty_like(x)
    for _ in range(max_iter):
        # Closed-form solve of the 2x2 system (M + lambda I) step = J^T r.
        a = curvature[:, 0, 0] + damping
        c = curvature[:, 1, 1] + damping
        b = curvature[:, 0, 1]
        determinant = a * c - b * b
        np.subtract(c * gradient[:, 0], b * gradient[:, 1], out=step[:, 0])
        np.subtract(a * gradient[:, 1], b * gradient[:, 0], out=step[:, 1])
        np.divide(step, determinant[:, None], out=step)
        np.subtract(x, step, out=candidate)
        frame.evaluate(candidate)
        # NaN compares false and rejects.
        np.less_equal(frame.stress, stress, out=accepted)
        accepted &= active
        moved = accepted[:, None]
        np.copyto(x, candidate, where=moved)
        np.copyto(stress, frame.stress, where=accepted)
        np.copyto(gradient, frame.gradient, where=moved)
        np.copyto(curvature, frame.curvature, where=moved[:, :, None])
        np.multiply(damping, np.where(accepted, _DAMPING_SHRINK, _DAMPING_GROW),
                    out=damping, where=active)
        np.maximum(damping, _MIN_DAMPING, out=damping)
        active &= ~(np.hypot(step[:, 0], step[:, 1]) < tol)
        if not active.any():
            break
    return x, stress


def procrustes_align(
    reference: np.ndarray,
    config: np.ndarray,
    allow_scaling: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rigidly align ``config`` onto ``reference`` (orthogonal Procrustes).

    Parameters
    ----------
    reference / config:
        ``(n, d)`` corresponding configurations.
    allow_scaling:
        Also fit a global scale factor. Off by default — distances in
        the map are meaningful (violation radii), so we only rotate,
        reflect and translate.

    Returns
    -------
    ``(aligned, rotation, translation)`` such that
    ``aligned = config @ rotation + translation``.
    """
    reference = np.asarray(reference, dtype=float)
    config = np.asarray(config, dtype=float)
    if reference.shape != config.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs config {config.shape}"
        )
    if reference.size == 0:
        # Identity transform in the *actual* dimensionality: an empty
        # (0, d) configuration still has d columns, and callers compose
        # the returned rotation/translation with d-dimensional data.
        dim = config.shape[1] if config.ndim == 2 else config.shape[0]
        return config.copy(), np.eye(dim), np.zeros(dim)

    mu_ref = reference.mean(axis=0)
    mu_cfg = config.mean(axis=0)
    ref_c = reference - mu_ref
    cfg_c = config - mu_cfg

    # Optimal rotation via SVD of the cross-covariance.
    u, s, vt = np.linalg.svd(cfg_c.T @ ref_c)
    rotation = u @ vt

    scale = 1.0
    if allow_scaling:
        denom = float(np.sum(cfg_c**2))
        if denom > 0:
            scale = float(np.sum(s)) / denom

    rotation = rotation * scale
    translation = mu_ref - mu_cfg @ rotation
    aligned = config @ rotation + translation
    return aligned, rotation, translation
