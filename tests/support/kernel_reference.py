"""The array placement kernel and geometry rebuild, kept as an oracle.

Before the placement kernel moved its bookkeeping onto Python floats, a
new mapped state paid NumPy dispatch on ``(S, n, 2)`` broadcasts and on
8-element arrays: ``_AnchorFrame.evaluate`` ran
every iterate through ``(S, n, 2)`` buffers and picked the curvature
with ``(S,)``-sized array calls, ``_descend`` solved, accepted and
damped on ``(S,)`` arrays, ``_multi_starts`` stacked its starts with
``np.vstack`` and found the widest anchor pair through
``np.triu_indices``, and ``StateSpace._build_geometry`` split the
labels with ``np.fromiter``, took ``np.median`` of two ranges and the
nearest safe states from a ``(v, s, 2)`` ``cross_distances`` broadcast.
The bodies below are the ones the parent commit (f615670) ran — the
kernel functions unchanged but for the stop rule below, the two
``StateSpace`` methods (and the ``_indices_by_label`` helper they
call) as functions of the space.
``cross_distances`` lived in ``repro.mds.distances`` until nothing
under ``src/`` called it.

One change was made to the array kernel after it was copied here:
``reference_descend`` learned the early stop the program's kernel
gained later (a start still moving on the exact Hessian stops once the
minimum of its own quadratic model is not below the lowest stress of a
start that has converged on a minimum; :func:`reference_model_floor`).
That is an algorithm change, and the oracle models the kernel's
algorithm; what it checks is how the float bookkeeping rounds against
array arithmetic, and that check is as strict as before. The rule is
written here in array form, apart from the program's, and the rest of
the arithmetic is unchanged.

Nothing under ``src/`` imports this module. The bit-identity suites
(``tests/property/test_prop_kernel_identity.py``) drive it side by side
with the program and demand the same bits: every placed coordinate,
every returned stress, every start row, every geometry scale, center
and radius.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.state_space import StateLabel, StateSpace, ViolationGeometry
from repro.mds.incremental import (
    _DAMPING_GROW,
    _DAMPING_SHRINK,
    _MIN_DAMPING,
    _MIN_DISTANCE,
    _checked_inputs,
    _place_trivial,
    _row_norms,
)


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between every row of ``a`` and every row of ``b``.

    Parameters
    ----------
    a / b:
        ``(n, d)`` and ``(m, d)`` arrays of row vectors.

    Returns
    -------
    ``(n, m)`` distance matrix. Row ``i`` is elementwise identical to
    ``point_distances(a[i], b)`` — the broadcasted form performs the
    same subtract/square/sum/sqrt operations, so callers can swap a
    per-row loop for one call without changing any comparison outcome.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"expected 2-D arrays, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} columns vs {b.shape[1]} columns"
        )
    deltas = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(deltas**2, axis=2))


# -- placement -----------------------------------------------------------------
def reference_place_point(
    anchors_2d: np.ndarray,
    deltas: np.ndarray,
    init: Optional[np.ndarray] = None,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> np.ndarray:
    """The parent's ``place_point`` over the array kernel below."""
    anchors, deltas, init = _checked_inputs(anchors_2d, deltas, init)
    if anchors.shape[0] < 2:
        return _place_trivial(anchors, deltas, init)
    if init is not None:
        starts = init[None, :]
    else:
        starts = reference_multi_starts(anchors, deltas)
    placed, stress = reference_descend(starts, anchors, deltas, max_iter, tol)
    # First strict minimum; a NaN or infinite stress never wins.
    ranked = np.where(stress < np.inf, stress, np.inf)
    best = int(np.argmin(ranked))
    if ranked[best] == np.inf:
        raise ValueError("no start reached a finite placement stress")
    return placed[best].copy()


def reference_multi_starts(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
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
        [
            base + offsets,
            anchors.mean(axis=0),
            *reference_trilateration_starts(anchors, deltas),
        ]
    )


def reference_trilateration_starts(
    anchors: np.ndarray, deltas: np.ndarray
) -> List[np.ndarray]:
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


class ReferenceAnchorFrame:
    """Per-call buffers for scoring ``S`` iterates against ``N`` anchors.

    Every array operation of the kernel writes into these, so one
    iteration is a fixed number of ufunc calls and no allocation. They
    live for one :func:`reference_place_point` call only.

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
        #: ``(S,)`` whether ``curvature`` is the exact half Hessian.
        self.definite = np.empty(n_starts, dtype=bool)
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
        np.greater(determinant, 0.0, out=self.definite)
        self.definite &= hessian[:, 0, 0] > 0.0
        self.curvature[...] = self._products[:, :, 0:2]
        np.copyto(self.curvature, hessian, where=self.definite[:, None, None])


def reference_descend(
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
    retried from the same point with more damping. A row settles once
    its step is shorter than ``tol``; once one has settled where its
    curvature is the exact half Hessian, a row still moving on that
    exact curvature stops as soon as its model floor is not below the
    lowest such stress. A
    stopped row is carried through the array operations but never
    written.

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
    frame = ReferenceAnchorFrame(n_starts, anchors, deltas)
    x = np.array(starts, dtype=float, copy=True)
    frame.evaluate(x)
    stress = frame.stress.copy()
    gradient = frame.gradient.copy()
    curvature = frame.curvature.copy()
    exact = frame.definite.copy()
    damping = np.full(n_starts, float(anchors.shape[0]))
    active = np.ones(n_starts, dtype=bool)
    accepted = np.empty(n_starts, dtype=bool)
    candidate = np.empty_like(x)
    step = np.empty_like(x)
    settled = np.inf
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
        np.copyto(exact, frame.definite, where=accepted)
        np.multiply(damping, np.where(accepted, _DAMPING_SHRINK, _DAMPING_GROW),
                    out=damping, where=active)
        np.maximum(damping, _MIN_DAMPING, out=damping)
        short = np.hypot(step[:, 0], step[:, 1]) < tol
        below = stress[active & short & exact]
        below = below[below < settled]
        if below.size:
            settled = below.min()
        active &= ~short
        if settled < np.inf:
            active &= ~exact | (reference_model_floor(stress, gradient, curvature) < settled)
        if not active.any():
            break
    return x, stress


def reference_model_floor(
    stress: np.ndarray, gradient: np.ndarray, curvature: np.ndarray
) -> np.ndarray:
    """``(S,)`` minima ``stress - g^T M^-1 g`` of each row's quadratic model.

    ``-inf`` where the curvature ``M`` is not positive definite.
    """
    m00, m01, m11 = curvature[:, 0, 0], curvature[:, 0, 1], curvature[:, 1, 1]
    g0, g1 = gradient[:, 0], gradient[:, 1]
    determinant = m00 * m11 - m01 * m01
    definite = (determinant > 0.0) & (m00 > 0.0)
    decrease = g0 * (m11 * g0 - m01 * g1) + g1 * (m00 * g1 - m01 * g0)
    floor = np.full_like(stress, -np.inf)
    np.divide(decrease, determinant, out=decrease, where=definite)
    np.subtract(stress, decrease, out=floor, where=definite)
    return floor


# -- violation geometry ----------------------------------------------------------
def reference_indices_by_label(space: StateSpace) -> Tuple[np.ndarray, np.ndarray]:
    """``(violation_indices, safe_indices)`` from one pass over the labels."""
    is_violation = np.fromiter(
        (label is StateLabel.VIOLATION for label in space.labels),
        dtype=bool,
        count=len(space.labels),
    )
    return (
        np.flatnonzero(is_violation).astype(int, copy=False),
        np.flatnonzero(~is_violation).astype(int, copy=False),
    )


def reference_coordinate_scale(space: StateSpace) -> float:
    """The Rayleigh scale ``c``: median of the per-axis coordinate ranges.

    For a 2-D map the per-axis ranges are two numbers — the x-range
    and the y-range of all mapped states — so their median and
    their mean coincide; ``c`` is that value.
    """
    if len(space) < 2:
        return 0.0
    ranges = space.coords.max(axis=0) - space.coords.min(axis=0)
    return float(np.median(ranges))


def reference_build_geometry(space: StateSpace) -> ViolationGeometry:
    """Materialize centers, scale and radii for the current map.

    The arithmetic mirrors the scalar reference path
    (``tests/support/geometry_reference.py``) operation for
    operation (same subtract/square/sum/sqrt/exp sequence), so the
    vectorized votes are bit-identical to the scalar ones.
    """
    violations, safe = reference_indices_by_label(space)
    c = reference_coordinate_scale(space)
    if violations.size == 0:
        return ViolationGeometry(
            n_states=len(space),
            scale=c,
            violation_indices=violations,
            centers=np.empty((0, 2)),
            radii=np.empty(0),
        )
    centers = space.coords[violations].copy()
    if space.radius_law == "fixed":
        radii = np.full(violations.size, float(space.fixed_radius))
    elif safe.size == 0:
        # No safe knowledge at all: fall back to the Rayleigh
        # peak radius so unexplored space is treated cautiously.
        fallback = c * float(np.exp(-0.5)) if c > 0 else 0.0
        radii = np.full(violations.size, fallback)
    elif c <= 0:
        radii = np.zeros(violations.size)
    else:
        nearest_safe = cross_distances(centers, space.coords[safe]).min(axis=1)
        radii = nearest_safe * np.exp(
            -(nearest_safe * nearest_safe) / (2.0 * c * c)
        )
    return ViolationGeometry(
        n_states=len(space),
        scale=c,
        violation_indices=violations,
        centers=centers,
        radii=radii,
    )
