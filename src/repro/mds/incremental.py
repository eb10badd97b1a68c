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

The objective is non-convex, so the loop runs from several starts at
once and keeps the best, stopping a start early once its own local
model says it cannot beat one that has converged. The work that grows
with the anchors is array operations over all starts, the per-start
bookkeeping runs on Python floats (see "Placement kernel" in
``docs/ARCHITECTURE.md``).

:func:`procrustes_align` keeps the map visually and semantically stable
across occasional full refits: the refit configuration is rotated /
reflected / translated onto the previous one, so violation-range
geometry carries over.
"""

from __future__ import annotations

import math
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
        and returns the lowest-stress result (first one on ties). A
        start stops early once its local model says it cannot end
        below a start that has already converged.
    max_iter:
        Most damped steps, taken or rejected, any start may try.
    tol:
        A start converges once its step is shorter than this (map
        units).

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
    best, lowest = None, math.inf
    for row, value in enumerate(stress.tolist()):
        if value < lowest:
            best, lowest = row, value
    if best is None:
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
    targets = deltas.tolist()
    # ``index(min(...))`` is argmin's first minimum; ``+ 0.0`` keeps the
    # array sum's sign of zero.
    bx, by = anchors[targets.index(min(targets))].tolist()
    scale = max(max(targets), 1e-3)
    return np.array(
        [
            [bx + 1e-6, by + 1e-6],
            [bx + scale, by + 0.0],
            [bx + -scale, by + 0.0],
            [bx + 0.0, by + scale],
            [bx + 0.0, by + -scale],
            anchors.mean(axis=0).tolist(),
            *_trilateration_starts(anchors, targets),
        ]
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


def _trilateration_starts(anchors: np.ndarray, deltas: List[float]) -> List[List[float]]:
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
        The ``N`` target distances.
    """
    # All i < j pairs, as flat indices i * N + j in row-major order, so
    # argmax's first maximum is the pair a nested ``sep > best`` scan
    # would keep.
    n = anchors.shape[0]
    order = np.arange(n)
    pairs = np.flatnonzero(order[:, None] < order)
    first, second = np.divmod(pairs, n)
    separations = _row_norms(anchors.take(first, axis=0) - anchors.take(second, axis=0))
    widest = int(np.argmax(separations))
    d = float(separations[widest])
    if d <= 1e-12:
        return []
    i, j = divmod(int(pairs[widest]), n)
    (ax, ay), (bx, by) = anchors[i].tolist(), anchors[j].tolist()
    ra, rb = deltas[i], deltas[j]
    # Projection of the intersection chord onto the a->b axis.
    along = (ra * ra - rb * rb + d * d) / (2.0 * d)
    height_sq = ra * ra - along * along
    ux, uy = (bx - ax) / d, (by - ay) / d
    fx, fy = ax + along * ux, ay + along * uy
    if height_sq <= 0:
        return [[fx, fy]]
    height = math.sqrt(height_sq)
    nx, ny = -uy, ux
    return [[fx + height * nx, fy + height * ny], [fx - height * nx, fy - height * ny]]


class _AnchorFrame:
    """Per-call buffers for scoring up to ``S`` iterates against ``N`` anchors.

    Only the ``(S, N)``-sized work runs as array operations, on
    buffers whose inner axis is the anchor axis; what they reduce to —
    five matmul columns and two sums per iterate — is read back with
    one ``tolist()`` and finished on Python floats. They live for one
    :func:`place_point` call only.

    Parameters
    ----------
    anchors:
        ``(N, D)`` anchor coordinates, ``D == 2``.
    deltas:
        ``(N,)`` target distances.
    """

    def __init__(self, n_starts: int, anchors: np.ndarray, deltas: np.ndarray) -> None:
        n = anchors.shape[0]
        self.count = float(n)
        #: ``(2, N)``: the anchors' x and y planes.
        self.planes = np.ascontiguousarray(anchors.T)
        self.deltas = deltas
        self._offsets = np.empty((n_starts, 2, n))
        self._squares = np.empty((n_starts, 2, n))
        self._distances = np.empty((n_starts, n))
        # The matmul's right operand must stay row-major (S, N, 5): its
        # columns are the unit directions u (0:2), the same scaled by
        # w = delta / d (2:4) and the residuals (4). A column-major one
        # can reach another BLAS kernel, and with it other last bits.
        self._columns = np.empty((n_starts, n, 5))
        # The squared residuals and the weights w, summed along N at once.
        self._summands = np.empty((n_starts, 2, n))
        # Per iterate, row 0: J^T J, sum w u u^T, J^T r (matmul columns
        # 0:5) and the stress; row 1: the same, and sum w.
        self._results = np.empty((n_starts, 2, 6))

    def evaluate(self, x: np.ndarray) -> List[List[float]]:
        """The sums that score iterates ``x``, one row of 12 floats each.

        With unit directions ``u_j`` and ``w_j = delta_j / d_j`` the
        half Hessian of the stress is ``sum_j (1 - w_j) I + w_j u_j
        u_j^T``; an iterate sitting on an anchor has ``u_j = 0`` there.
        A row holds ``J^T J``, ``sum w u u^T`` and ``J^T r`` row by row
        with the stress after the first and ``sum w`` after the second
        (:meth:`score` reads it).

        Parameters
        ----------
        x:
            ``(A, D)`` iterates to score, ``A <= S``, ``D == 2``.
        """
        rows = x.shape[0]
        offsets, squares = self._offsets[:rows], self._squares[:rows]
        distances, columns = self._distances[:rows], self._columns[:rows]
        summands, results = self._summands[:rows], self._results[:rows]
        directions = columns[:, :, 0:2].transpose(0, 2, 1)
        residuals, weights = columns[:, :, 4], summands[:, 1]
        np.subtract(x[:, :, None], self.planes, out=offsets)
        np.square(offsets, out=squares)
        np.add(squares[:, 0], squares[:, 1], out=distances)
        np.sqrt(distances, out=distances)
        np.subtract(distances, self.deltas, out=residuals)
        np.maximum(distances, _MIN_DISTANCE, out=distances)
        np.divide(offsets, distances[:, None, :], out=directions)
        np.divide(self.deltas, distances, out=weights)
        np.multiply(
            directions, weights[:, None, :], out=columns[:, :, 2:4].transpose(0, 2, 1), order="C"
        )
        np.matmul(directions, columns, out=results[:, :, 0:5])
        np.multiply(residuals, residuals, out=summands[:, 0])
        np.add.reduce(summands, axis=2, out=results[:, :, 5])
        return results.reshape(rows, 12).tolist()

    def score(self, raw: List[float]) -> Tuple[float, float, float, float, float, float, bool]:
        """``(stress, g0, g1, m00, m01, m11, exact)`` of one row :meth:`evaluate` read back.

        The residual stress, the half gradient ``J^T r`` and the upper
        triangle of the curvature ``M``: the exact half Hessian where it
        is positive definite (both leading minors positive; ``exact``
        is true), the Gauss-Newton ``J^T J`` elsewhere.
        """
        m00, m01, h00, h01, g0, stress, m10, m11, h10, h11, g1, weight = raw
        h00 += self.count - weight
        h11 += self.count - weight
        if h00 * h11 - h01 * h10 > 0.0 and h00 > 0.0:
            return stress, g0, g1, h00, h01, h11, True
        return stress, g0, g1, m00, m01, m11, False


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
    retried from the same point with more damping. A row *settles*
    once its step is shorter than ``tol``. Once some row has settled
    where its exact half Hessian is positive definite (a minimum), a
    row still moving whose curvature is also that exact Hessian stops
    early as soon as the minimum of its local quadratic model
    (:func:`_model_floor`) is not below the lowest such stress: it can
    no longer win. A row on the Gauss-Newton curvature never stops
    early — on a non-convex stress that model's minimum is no lower
    bound. Only the rows still moving are scored.

    Parameters
    ----------
    starts:
        ``(S, D)`` initial iterates, ``D == 2``.
    anchors:
        ``(N, D)`` fixed anchor coordinates.
    deltas:
        ``(N,)`` target distances.
    """
    frame = _AnchorFrame(starts.shape[0], anchors, deltas)
    x = starts.tolist()
    scored = [frame.score(raw) for raw in frame.evaluate(starts)]
    damping = [frame.count] * len(x)
    active = list(range(len(x)))
    # The lowest stress of a row that has settled on a minimum.
    settled = math.inf
    for _ in range(max_iter):
        moves = []
        for row in active:
            _, g0, g1, m00, m01, m11, _ = scored[row]
            a = m00 + damping[row]
            c = m11 + damping[row]
            determinant = a * c - m01 * m01
            # Closed-form solve of the 2x2 system (M + lambda I) step = J^T r.
            try:
                s0 = (c * g0 - m01 * g1) / determinant
                s1 = (a * g1 - m01 * g0) / determinant
            except ZeroDivisionError:  # IEEE: +-inf, or NaN for 0 / 0
                s0, s1 = (np.array([c * g0 - m01 * g1, a * g1 - m01 * g0]) / determinant).tolist()
            x0, x1 = x[row]
            moves.append((x0 - s0, x1 - s1, s0, s1))
        moves_array = np.array(moves)
        trials = frame.evaluate(moves_array[:, 0:2])
        lengths = np.hypot(moves_array[:, 2], moves_array[:, 3]).tolist()
        still = []
        for row, move, trial, length in zip(active, moves, trials, lengths):
            # NaN compares false and rejects.
            if trial[5] <= scored[row][0]:
                x[row] = move[0:2]
                scored[row] = frame.score(trial)
                damping[row] = max(damping[row] * _DAMPING_SHRINK, _MIN_DAMPING)
            else:
                damping[row] = max(damping[row] * _DAMPING_GROW, _MIN_DAMPING)
            if not length < tol:
                still.append(row)
            elif scored[row][6] and scored[row][0] < settled:
                # Only a minimum bounds the others: a start on a
                # symmetry axis can settle on the saddle it never leaves.
                settled = scored[row][0]
        if settled < math.inf:
            # Only Newton's model bounds the stress near a row; the
            # Gauss-Newton model's minimum may lie above a lower basin.
            still = [
                row for row in still
                if not scored[row][6] or _model_floor(scored[row]) < settled
            ]
        active = still
        if not active:
            break
    return np.array(x, dtype=float), np.array([row[0] for row in scored])


def _model_floor(score: Tuple[float, float, float, float, float, float, bool]) -> float:
    """The minimum ``stress - g^T M^-1 g`` of a row's local quadratic model.

    ``score`` is the row's :meth:`_AnchorFrame.score` tuple: Newton's
    model where ``M`` is the half Hessian, Gauss-Newton's where it is
    ``J^T J``; ``-inf`` when ``M`` is not positive definite and the
    model has no minimum.
    """
    stress, g0, g1, m00, m01, m11, _ = score
    determinant = m00 * m11 - m01 * m01
    if determinant > 0.0 and m00 > 0.0:
        return stress - (g0 * (m11 * g0 - m01 * g1) + g1 * (m00 * g1 - m01 * g0)) / determinant
    return -math.inf


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
