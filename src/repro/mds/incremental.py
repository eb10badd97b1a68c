"""Incremental (out-of-sample) MDS placement and map alignment.

Refitting SMACOF from scratch every period is quadratic in the number
of observed states; the paper notes that incremental MDS variants exist
"with high performance and very low overhead" (§4, citing [32, 35]).
We implement the standard single-point majorization: hold the existing
("anchor") map fixed and iterate the Guttman update for the new point
only, which minimizes

    sum_j (|x - y_j| - delta_j)^2

over the new point's 2-D coordinates ``x``, where ``delta_j`` are the
high-dimensional distances from the new sample to each anchor.

The objective is non-convex, so the optimiser runs from several starts
and keeps the best. :func:`place_point` iterates all starts at once as
rows of one ``(S, 2)`` array (see "Placement kernel" in
``docs/ARCHITECTURE.md``); :func:`place_point_reference` is the
one-start-at-a-time loop it replaced, retained verbatim as the
equivalence reference — the two return bit-identical coordinates.

:func:`procrustes_align` keeps the map visually and semantically stable
across occasional full refits: the refit configuration is rotated /
reflected / translated onto the previous one, so violation-range
geometry carries over.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mds.distances import point_distances

#: Floor under a point-to-anchor distance before dividing by it.
_MIN_DISTANCE = 1e-12
#: Gauss-Newton polish steps after the majorization.
_POLISH_STEPS = 12
#: Tikhonov term keeping the 2x2 Gauss-Newton system solvable.
_RIDGE = 1e-12 * np.eye(2)


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
    placed, stress = _optimize_starts(starts, anchors, deltas, max_iter, tol)
    # First strict minimum, as the reference's ``stress < best`` scan:
    # a NaN or infinite stress never wins.
    ranked = np.where(stress < np.inf, stress, np.inf)
    best = int(np.argmin(ranked))
    if ranked[best] == np.inf:
        raise ValueError("no start reached a finite placement stress")
    return placed[best].copy()


def place_point_reference(
    anchors_2d: np.ndarray,
    deltas: np.ndarray,
    init: Optional[np.ndarray] = None,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> np.ndarray:
    """Reference :func:`place_point`: one start at a time.

    The optimiser :func:`place_point` replaced, retained verbatim (the
    ``*_scalar`` idiom of ``StateSpace``) so the equivalence suites can
    require ``np.array_equal`` between the two. Not used by the
    program itself.
    """
    anchors, deltas, init = _checked_inputs(anchors_2d, deltas, init)
    if anchors.shape[0] < 2:
        return _place_trivial(anchors, deltas, init)

    if init is not None:
        starts = [np.array(init, dtype=float, copy=True)]
    else:
        # Multi-start: symmetric anchor configurations (e.g. collinear
        # anchors) have mirror optima separated by a slow-escape ridge;
        # starting on several sides of the nearest anchor avoids it.
        nearest = int(np.argmin(deltas))
        base = anchors[nearest]
        scale = max(float(deltas.max()), 1e-3)
        starts = [
            base + np.array([1e-6, 1e-6]),
            base + np.array([scale, 0.0]),
            base + np.array([-scale, 0.0]),
            base + np.array([0.0, scale]),
            base + np.array([0.0, -scale]),
            anchors.mean(axis=0),
        ]
        starts.extend(_trilateration_starts_reference(anchors, deltas))

    best_x: Optional[np.ndarray] = None
    best_stress = np.inf
    for start in starts:
        x = _optimize_placement_reference(start, anchors, deltas, max_iter, tol)
        stress = placement_stress(x, anchors, deltas)
        if stress < best_stress:
            best_stress = stress
            best_x = x
    if best_x is None:
        raise ValueError("no start reached a finite placement stress")
    return best_x


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
    """Per-call buffers for distances from ``S`` iterates to ``N`` anchors.

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
        #: ``(S, N, 2)``: iterate minus anchor, later direction / Jacobian.
        self.offsets = np.empty((n_starts, n, 2))
        self._squares = np.empty((n_starts, n, 2))
        #: ``(S, N)``: distance from iterate ``s`` to anchor ``j``.
        self.distances = np.empty((n_starts, n))
        #: ``(S, N)``: ``distances - deltas``.
        self.residuals = np.empty((n_starts, n))

    def measure(self, x: np.ndarray) -> None:
        """Fill ``offsets`` and ``distances`` for the iterates ``x``.

        The same subtract / square / add / sqrt sequence as
        :func:`~repro.mds.distances.point_distances` (whose operand
        order is ``anchor - x``; the squares are identical).

        Parameters
        ----------
        x:
            ``(S, D)`` current iterates.
        """
        np.subtract(x[:, None, :], self.anchors, out=self.offsets)
        np.square(self.offsets, out=self._squares)
        np.add(self._squares[:, :, 0], self._squares[:, :, 1], out=self.distances)
        np.sqrt(self.distances, out=self.distances)

    def stress(self, x: np.ndarray) -> np.ndarray:
        """``(S,)`` residual stress of each iterate; fills ``residuals``.

        Summing along the contiguous last axis uses the pairwise order
        ``np.sum`` applies to the reference's 1-D residual vector.

        Parameters
        ----------
        x:
            ``(S, D)`` iterates to score.
        """
        self.measure(x)
        np.subtract(self.distances, self.deltas, out=self.residuals)
        return np.add.reduce(np.square(self.residuals), axis=1)

    def normalize_offsets(self) -> None:
        """Turn ``offsets`` into unit directions (consumes ``distances``)."""
        np.maximum(self.distances, _MIN_DISTANCE, out=self.distances)
        np.divide(self.offsets, self.distances[:, :, None], out=self.offsets)


def _optimize_starts(
    starts: np.ndarray,
    anchors: np.ndarray,
    deltas: np.ndarray,
    max_iter: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Majorize, then polish, every start at once.

    Returns the ``(S, 2)`` final iterates and their ``(S,)`` stresses.
    Row ``s`` is bit-identical to running the reference
    optimiser on ``starts[s]`` alone: all arithmetic is elementwise per
    row, the reductions over anchors keep the reference's order, and a
    row that meets a stopping rule is frozen by an *active mask* — it
    is still carried through the array operations, but never written
    back.

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
    n = anchors.shape[0]
    frame = _AnchorFrame(n_starts, anchors, deltas)
    offsets = frame.offsets
    x = np.array(starts, dtype=float, copy=True)
    proposal = np.empty_like(x)
    step = np.empty_like(x)

    # Single-point Guttman update: pull each anchor's contribution to
    # its target radius along the current direction, average them.
    active = np.ones(n_starts, dtype=bool)
    for _ in range(max_iter):
        frame.measure(x)
        frame.normalize_offsets()
        np.multiply(deltas[:, None], offsets, out=offsets)
        np.add(anchors, offsets, out=offsets)
        # Reducing the middle axis adds anchors in index order, like
        # the reference's ``mean(axis=0)`` of an (n, 2) array.
        np.add.reduce(offsets, axis=1, out=proposal)
        np.divide(proposal, n, out=proposal)
        np.subtract(proposal, x, out=step)
        # A row takes the proposal and, if the step was below tol,
        # stops there (the reference's ``x = new_x; break``).
        np.copyto(x, proposal, where=active[:, None])
        active &= ~(_row_norms(step) < tol)
        if not active.any():
            break

    # Gauss-Newton polish: the majorization converges slowly along flat
    # directions; a few Newton steps tighten the placement.
    active = np.ones(n_starts, dtype=bool)
    jacobian_t = offsets.transpose(0, 2, 1)
    gram = np.empty((n_starts, 2, 2))
    gradient = np.empty((n_starts, 2, 1))
    candidate = np.empty_like(x)
    for _ in range(_POLISH_STEPS):
        current_stress = frame.stress(x)
        frame.normalize_offsets()  # offsets is now the (S, N, 2) Jacobian
        np.matmul(jacobian_t, offsets, out=gram)
        np.add(gram, _RIDGE, out=gram)
        np.matmul(jacobian_t, frame.residuals[:, :, None], out=gradient)
        try:
            step = np.linalg.solve(gram, gradient)[:, :, 0]
        except np.linalg.LinAlgError:
            # Some row is singular; only that row stops. Solve the
            # live rows one by one, as the reference would have.
            step = np.zeros_like(x)
            for row in np.flatnonzero(active):
                try:
                    step[row] = np.linalg.solve(gram[row], gradient[row, :, 0])
                except np.linalg.LinAlgError:
                    active[row] = False
        np.subtract(x, step, out=candidate)
        # Accept a step that does not raise the stress (NaN compares
        # false and rejects); a rejected row stops where it is.
        active &= frame.stress(candidate) <= current_stress
        np.copyto(x, candidate, where=active[:, None])
        active &= ~(_row_norms(step) < tol)
        if not active.any():
            break
    return x, frame.stress(x)


# -- reference implementation --------------------------------------------------
# Retained verbatim from the pre-batching code path: the equivalence
# suites (tests/unit/test_incremental.py, tests/property/test_prop_mds.py,
# tests/integration/test_end_to_end.py) prove the kernel above returns
# bit-identical coordinates.
def _trilateration_starts_reference(anchors: np.ndarray, deltas: np.ndarray) -> list:
    """Reference widest-pair search: one ``norm`` call per anchor pair."""
    n = anchors.shape[0]
    if n < 2:
        return []
    # Widest-separated anchor pair.
    best_pair = None
    best_sep = -1.0
    for i in range(n):
        for j in range(i + 1, n):
            sep = float(np.linalg.norm(anchors[i] - anchors[j]))
            if sep > best_sep:
                best_sep = sep
                best_pair = (i, j)
    if best_pair is None or best_sep <= 1e-12:
        return []
    i, j = best_pair
    a, b = anchors[i], anchors[j]
    ra, rb = float(deltas[i]), float(deltas[j])
    d = best_sep
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


def _optimize_placement_reference(
    x0: np.ndarray,
    anchors: np.ndarray,
    deltas: np.ndarray,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """Majorization iterations followed by a Gauss-Newton polish."""
    x = np.array(x0, dtype=float, copy=True)
    for _ in range(max_iter):
        distances = point_distances(x, anchors)
        safe = np.maximum(distances, 1e-12)
        # Single-point Guttman update: pull each anchor's contribution
        # to its target radius along the current direction.
        directions = (x[None, :] - anchors) / safe[:, None]
        proposal = anchors + deltas[:, None] * directions
        new_x = proposal.mean(axis=0)
        if np.linalg.norm(new_x - x) < tol:
            x = new_x
            break
        x = new_x

    # Gauss-Newton polish: the majorization converges slowly along flat
    # directions; a few Newton steps tighten the placement.
    for _ in range(12):
        distances = point_distances(x, anchors)
        safe = np.maximum(distances, 1e-12)
        residuals = distances - deltas
        jacobian = (x[None, :] - anchors) / safe[:, None]
        gram = jacobian.T @ jacobian
        gradient = jacobian.T @ residuals
        try:
            step = np.linalg.solve(gram + 1e-12 * np.eye(gram.shape[0]), gradient)
        except np.linalg.LinAlgError:
            break
        candidate = x - step
        if placement_stress(candidate, anchors, deltas) <= placement_stress(
            x, anchors, deltas
        ):
            x = candidate
        else:
            break
        if np.linalg.norm(step) < tol:
            break
    return x


def placement_stress(point: np.ndarray, anchors_2d: np.ndarray, deltas: np.ndarray) -> float:
    """Residual stress of a placed point against its anchors."""
    distances = point_distances(np.asarray(point, float), np.asarray(anchors_2d, float))
    return float(np.sum((distances - np.asarray(deltas, float)) ** 2))


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
