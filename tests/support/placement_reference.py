"""The scalar placement optimiser, kept as the kernel's quality oracle.

This is the one-start-at-a-time ``place_point`` that shipped until the
damped kernel replaced it: up to 100 single-point Guttman updates per
start, then at most 12 Gauss-Newton steps, the first strict minimum
over the starts. The three functions below are that code verbatim
(they share the input checks and the closed forms for fewer than two
anchors with the program; ``placement_stress``, the residual every
placement suite measures with, lived in ``mds/incremental.py`` until
PR 24 and moved here unchanged when nothing in ``src/`` called it).
Nothing under
``src/`` imports this module; the placement suites use it to require
that the kernel never ends on a higher stress than the code it
replaced, from the same starts.

:func:`lost_to_reference` is the comparison those suites share, and
:func:`random_corpus` the seeded instance set the kernel's stop rule
was chosen on.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.mds.distances import point_distances
from repro.mds.incremental import _checked_inputs, _place_trivial


def placement_stress(point: np.ndarray, anchors_2d: np.ndarray, deltas: np.ndarray) -> float:
    """Residual stress of a placed point against its anchors."""
    distances = point_distances(np.asarray(point, float), np.asarray(anchors_2d, float))
    return float(np.sum((distances - np.asarray(deltas, float)) ** 2))


def place_point_reference(
    anchors_2d: np.ndarray,
    deltas: np.ndarray,
    init: Optional[np.ndarray] = None,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> np.ndarray:
    """The ``place_point`` of the majorize-then-polish kernel, one start at a time."""
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


def lost_to_reference(
    placed: np.ndarray,
    anchors: np.ndarray,
    deltas: np.ndarray,
    init: Optional[np.ndarray] = None,
) -> Optional[str]:
    """Why ``placed`` is a worse placement than the reference's, or ``None``.

    With the default multi-start the kernel's stress may exceed the
    reference's by at most ``1e-12 * (1 + stress)``. A single descent
    from ``init`` can legitimately end on another stationary point than
    the Guttman path does — a local minimum across a ridge, the saddle
    on a symmetry axis it was started on — and it does so either way
    round (see "Placement kernel" in ``docs/ARCHITECTURE.md``). What it
    must never do is stop where the stress still slopes, as the polish
    of the reference itself could; so a higher stress from one start is
    excused only at a point whose gradient has vanished.
    """
    anchors = np.asarray(anchors, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    reference = place_point_reference(anchors, deltas, init=init)
    ours = placement_stress(placed, anchors, deltas)
    theirs = placement_stress(reference, anchors, deltas)
    if ours <= theirs + 1e-12 * (1.0 + theirs):
        return None
    verdict = f"stress {ours!r} at {placed!r} against the reference's {theirs!r} at {reference!r}"
    if init is None:
        return verdict
    offsets = placed - anchors
    distances = point_distances(placed, anchors)
    directions = offsets / np.maximum(distances, 1e-12)[:, None]
    slope = float(np.linalg.norm((distances - deltas) @ directions))
    extent = 1.0 + max(float(np.abs(anchors).max()), float(deltas.max()))
    if slope <= 1e-7 * len(deltas) * extent:
        return None
    return verdict + f" on a slope of {slope!r}"


#: The instance kinds of :func:`random_corpus`, drawn in this order.
CORPUS_KINDS = ("gaussian", "collinear", "high-dimensional")


def random_corpus(
    per_kind: int, seed: int = 0
) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
    """``(kind, anchors, deltas)`` placement instances, ``per_kind`` of each kind.

    One ``default_rng(seed)`` draws every instance, the kinds
    interleaved, so a smaller ``per_kind`` yields a prefix of a larger
    one. Each has ``n`` in ``[2, 60)`` anchors:

    * ``gaussian`` — Gaussian 2-D anchors, targets the norms of
      Gaussian 3-D vectors (low-dimensional and unrelated to the map);
    * ``collinear`` — the same targets against anchors on one random
      line, where the stress has mirror minima;
    * ``high-dimensional`` — Gaussian 2-D anchors, targets the
      distances from a Gaussian 10-D point to ``n`` Gaussian 10-D ones.
    """
    rng = np.random.default_rng(seed)
    for _ in range(per_kind):
        for kind in CORPUS_KINDS:
            n = int(rng.integers(2, 60))
            if kind == "gaussian":
                anchors = rng.normal(size=(n, 2))
                deltas = np.linalg.norm(rng.normal(size=(n, 3)), axis=1)
            elif kind == "collinear":
                angle = rng.uniform(0.0, np.pi)
                along = rng.normal(size=n) * 2.0
                anchors = rng.normal(size=2) + along[:, None] * np.array(
                    [np.cos(angle), np.sin(angle)]
                )
                deltas = np.linalg.norm(rng.normal(size=(n, 3)), axis=1)
            else:
                anchors = rng.normal(size=(n, 2))
                deltas = np.linalg.norm(rng.normal(size=(n, 10)) - rng.normal(size=10), axis=1)
            yield kind, anchors, deltas
