"""The scalar violation-geometry path, kept verbatim as a test oracle.

This is the pre-vectorization code path of ``StateSpace``: one radius
at a time, one membership scan per candidate, every radius re-derived
on every call. The functions below are the ``*_scalar`` methods (and
their ``_radius_for`` helper) that lived in ``core/state_space.py``
until PR 23, as functions of the space instead of methods. Nothing
under ``src/`` imports this module; the equivalence suites
(``tests/unit/test_geometry.py``, ``tests/property/test_prop_geometry.py``)
and ``benchmarks/bench_geometry.py`` use it to prove the cached
vectorized path gives identical votes.

``nearest_safe_distance`` (what the scalar radius is derived from) and
the one-point membership query ``in_range`` were ``StateSpace`` methods
only these suites called; since PR 24 they live here, the first
unchanged, the second as the one-candidate case of the vote the
program does run.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.state_space import CENTER_EPSILON, StateSpace, violation_range_radius
from repro.mds.distances import point_distances


def nearest_safe_distance(space: StateSpace, point: np.ndarray) -> float:
    """2-D distance from ``point`` to the nearest safe-state.

    ``inf`` when no safe state exists yet.
    """
    safe = space.safe_indices
    if safe.size == 0:
        return float("inf")
    distances = point_distances(np.asarray(point, float), space.coords[safe])
    return float(distances.min())


def in_range(space: StateSpace, point: np.ndarray) -> bool:
    """True when ``point`` lies inside any violation-range disc.

    A violation-state's own disc always contains its center, even when
    the computed radius is 0 (an exactly revisited violation state is,
    by definition, a violation).
    """
    return space.violation_vote(np.asarray(point, dtype=float)[None, :]) == 1


def _radius_for(space: StateSpace, index: int, c: float) -> float:
    """Violation-range radius for one violation-state (scalar path)."""
    if space.radius_law == "fixed":
        return space.fixed_radius
    d = nearest_safe_distance(space, space.coords[index])
    if np.isinf(d):
        # No safe knowledge at all: fall back to the Rayleigh peak
        # radius so unexplored space is treated cautiously.
        return c * float(np.exp(-0.5)) if c > 0 else 0.0
    return violation_range_radius(d, c)


def violation_ranges_scalar(space: StateSpace) -> List[Tuple[np.ndarray, float]]:
    """Reference ``(center, radius)`` list, one radius at a time."""
    c = space.coordinate_scale()
    return [
        (space.coords[index].copy(), float(_radius_for(space, index, c)))
        for index in space.violation_indices
    ]


def in_violation_range_scalar(space: StateSpace, point: np.ndarray) -> bool:
    """Reference membership test recomputing radii per call."""
    point = np.asarray(point, dtype=float)
    violations = space.violation_indices
    if violations.size == 0:
        return False
    centers = space.coords[violations]
    distances = point_distances(point, centers)
    if np.any(distances <= CENTER_EPSILON):
        return True
    c = space.coordinate_scale()
    for center_distance, index in zip(distances, violations):
        if center_distance <= _radius_for(space, index, c):
            return True
    return False


def violation_vote_scalar(space: StateSpace, candidates: np.ndarray) -> int:
    """Reference vote: one full membership scan per candidate."""
    candidates = np.asarray(candidates, dtype=float)
    if candidates.ndim != 2 or candidates.shape[1] != 2:
        raise ValueError(f"expected (n, 2) candidates, got {candidates.shape}")
    return sum(
        1 for candidate in candidates if in_violation_range_scalar(space, candidate)
    )
