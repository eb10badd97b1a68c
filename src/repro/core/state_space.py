"""The 2-D state space: mapped states, labels and violation-ranges.

This module owns the geometry of §3.2:

* every deduplicated measurement vector is a *mapped-state* with 2-D
  coordinates;
* states observed during a reported QoS violation are *violation-states*
  (sticky: a state seen violating stays a violation-state);
* around every violation-state lives a *violation-range* disc whose
  radius follows the Rayleigh-scaled law of §3.2.2:

      R = d * exp(-d^2 / (2 c^2))

  where ``d`` is the distance to the nearest safe-state and ``c`` is
  the median of the coordinate ranges of the mapped space. The radius
  grows with ``d`` up to ``d = c`` and fades beyond, so the
  exploration-range opens up when known-safe territory is far away and
  collapses when safe states crowd in (Fig. 4).
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.mds.dedup import RepresentativeSet
from repro.mds.distances import pairwise_distances
from repro.mds.incremental import place_point, procrustes_align
from repro.mds.smacof import smacof
from repro.mds.stress import normalized_stress
from repro.telemetry import Telemetry

#: A point exactly on a violation-state's center counts as inside its
#: range even when the computed radius is 0 (a revisited violation
#: state is, by definition, a violation).
CENTER_EPSILON = 1e-12


class StateLabel(enum.Enum):
    """Safe vs violation labelling of mapped states."""

    SAFE = "safe"
    VIOLATION = "violation"


_LABELS = (StateLabel.SAFE, StateLabel.VIOLATION)


class ViolationGeometry(NamedTuple):
    """Materialized violation-range geometry of one state-space snapshot.

    Everything the per-period vote needs — violation centers, the
    Rayleigh scale and every disc radius — computed once per state-space
    change via a single broadcasted distance pass, so that
    :meth:`vote` is a few vectorized NumPy operations with no
    per-candidate recomputation.

    Instances are immutable snapshots; :class:`StateSpace` owns the
    cache and rebuilds on its mutation events (see
    :meth:`StateSpace.geometry`).

    Attributes
    ----------
    n_states:
        State-space size the snapshot was built from.
    scale:
        The Rayleigh scale ``c`` at build time.
    violation_indices:
        ``(v,)`` state indices of the violation-states.
    centers:
        ``(v, 2)`` coordinates of the violation-states.
    radii:
        ``(v,)`` violation-range radii, index-aligned with ``centers``.
    """

    n_states: int
    scale: float
    violation_indices: np.ndarray
    centers: np.ndarray
    radii: np.ndarray

    @property
    def n_violations(self) -> int:
        """Number of violation-states in the snapshot."""
        return int(self.violation_indices.size)

    def vote(self, candidates: np.ndarray) -> int:
        """How many of the ``(n, 2)`` float candidates fall inside a violation-range.

        One ``(n_candidates, n_violations)`` distance plane — the
        subtract/square/sum/sqrt of the scalar reference for every
        pair, after the checks :meth:`StateSpace.violation_vote` has
        made — and one boolean reduction; no Python-level loop over
        candidates. The x and y offsets are two ``(n, 1) - (v,)``
        broadcasts, squared, summed and rooted in place: ``dx * dx +
        dy * dy`` is the two-term sum the ``(n, v, 2)`` broadcast
        reduced over its last axis, operand for operand.
        ``d <= fmax(r, CENTER_EPSILON)`` is ``(d <= CENTER_EPSILON) |
        (d <= r)`` for every float (``fmax``: a NaN radius must leave
        the centre test alive), read from the live ``radii`` on every
        vote: a radius written in place is voted on as written.
        """
        centers = self.centers
        if centers.shape[0] == 0 or candidates.shape[0] == 0:
            return 0
        dx = candidates[:, 0:1] - centers[:, 0]
        dy = candidates[:, 1:2] - centers[:, 1]
        dx *= dx
        dy *= dy
        dx += dy
        distances = np.sqrt(dx, out=dx)
        inside = distances <= np.fmax(self.radii, CENTER_EPSILON)
        return int(np.count_nonzero(np.logical_or.reduce(inside, axis=1)))

    def ranges(self) -> List[Tuple[np.ndarray, float]]:
        """``(center, radius)`` per violation-state, copy-safe."""
        return [
            (self.centers[i].copy(), float(self.radii[i]))
            for i in range(self.centers.shape[0])
        ]


def violation_range_radius(d: float, c: float) -> float:
    """The paper's violation-range radius ``R = d * exp(-d^2 / (2 c^2))``.

    Parameters
    ----------
    d:
        Distance between the violation-state and its nearest safe-state.
    c:
        Rayleigh scale: the median of the coordinate ranges of the
        mapped space. ``c <= 0`` (degenerate map) gives radius 0.
    """
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    if c <= 0 or d == 0:
        return 0.0
    return float(d * np.exp(-(d * d) / (2.0 * c * c)))


#: Iteration cap per full SMACOF refit.
REFIT_MAX_ITER = 40

#: New representatives between two full SMACOF refits.
REFIT_INTERVAL = 40


class StateSpace:
    """Deduplicated mapped states with labels and violation-ranges.

    The map is one table, :attr:`representatives`; only the methods
    here change its rows.

    Parameters
    ----------
    epsilon:
        Dedup merge radius in the normalized high-dimensional space.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` whose registry holds
        this space's counts (refits, the last SMACOF solve and the
        geometry cache) and whose stages time refits and rebuilds. The
        controller passes its own; a private disabled one by default.
    """

    def __init__(
        self,
        epsilon: float = 0.03,
        radius_law: str = "rayleigh",
        fixed_radius: float = 0.05,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if radius_law not in ("rayleigh", "fixed"):
            raise ValueError(
                f"radius_law must be 'rayleigh' or 'fixed', got {radius_law!r}"
            )
        self.representatives = RepresentativeSet(epsilon=epsilon)
        self.refit_interval = REFIT_INTERVAL
        self.radius_law = radius_law
        self.fixed_radius = fixed_radius
        self._new_since_refit = 0
        self._geometry: Optional[ViolationGeometry] = None
        self.telemetry = telemetry if telemetry is not None else Telemetry(enabled=False)
        self._c_refits = self.telemetry.counter("mapping.refits", help="full SMACOF refits")
        self._g_refit_states = self.telemetry.gauge(
            "mapping.refit_states", help="state-space size at the last refit"
        )
        self._c_smacof_converged = self.telemetry.counter(
            "smacof.converged", help="solves that met the tolerance"
        )
        self._h_smacof_iterations = self.telemetry.histogram(
            "smacof.iterations",
            help="Guttman iterations per solve",
            buckets=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 300.0),
        )
        self._g_smacof_stress = self.telemetry.gauge(
            "smacof.last_stress", help="raw stress of the last solve"
        )
        self._c_geometry_hits = self.telemetry.counter(
            "geometry.cache_hits", help="violation-geometry lookups served from cache"
        )
        self._c_geometry_rebuilds = self.telemetry.counter(
            "geometry.rebuilds", help="violation-geometry cache rebuilds"
        )
        self._c_geometry_invalidations = self.telemetry.counter(
            "geometry.invalidations",
            help="violation-geometry cache drops (mutation events)",
        )

    @property
    def refit_count(self) -> int:
        """Full SMACOF refits so far (the ``mapping.refits`` counter)."""
        return int(self._c_refits.value)

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.representatives.coords)

    @property
    def coords(self) -> np.ndarray:
        """``(n, 2)`` map coordinates, a live view of the table's column."""
        return self.representatives.coords

    @coords.setter
    def coords(self, value: np.ndarray) -> None:
        # In place, so ``space.coords *= k`` reaches the table.
        self.representatives.coords[...] = value

    @property
    def violation(self) -> np.ndarray:
        """``(n,)`` violation flags, a live view of the table's column."""
        return self.representatives.violation

    def label(self, index: int) -> StateLabel:
        """The label of state ``index``."""
        return _LABELS[self.representatives.violation.item(index)]

    @property
    def labels(self) -> List[StateLabel]:
        """Every state's label, read from the flag column."""
        return [_LABELS[flag] for flag in self.violation.tolist()]

    @property
    def violation_indices(self) -> np.ndarray:
        """Indices of violation-states."""
        return np.flatnonzero(self.violation)

    @property
    def safe_indices(self) -> np.ndarray:
        """Indices of safe-states."""
        return np.flatnonzero(~self.violation)

    def coordinate_scale(self) -> float:
        """The Rayleigh scale ``c``: median of the per-axis coordinate ranges.

        For a 2-D map the per-axis ranges are two numbers — the x-range
        and the y-range of all mapped states — so their median and
        their mean coincide; ``c`` is that value.
        """
        if len(self) < 2:
            return 0.0
        x_range, y_range = (self.coords.max(axis=0) - self.coords.min(axis=0)).tolist()
        return (x_range + y_range) / 2

    # -- growth ------------------------------------------------------------
    def add_sample(
        self, normalized: np.ndarray, violated: bool
    ) -> Tuple[int, bool, bool]:
        """Absorb one normalized measurement vector.

        Returns ``(state_index, is_new_state, refitted)``. A sample
        merging into an existing representative reuses its coordinates;
        a violation observation relabels the state stickily. A new state
        lands whole or not at all: when its placement raises (a
        non-finite representative makes every distance of the scan
        non-finite), the row :meth:`RepresentativeSet.assign` opened
        goes again.
        """
        table = self.representatives
        index, is_new = table.assign(normalized)
        refitted = False
        if is_new:
            if index:
                # Against the scan that opened the row: the new sample
                # to every representative before it.
                try:
                    table.coords[index] = place_point(
                        table.coords[:index], table.last_distances
                    )
                except ValueError:
                    table.remove_indices([index])
                    raise
            self.invalidate_geometry()
            self._new_since_refit += 1
            if self._new_since_refit >= self.refit_interval:
                self.refit()
                refitted = True
        if violated and not table.violation[index]:
            table.violation[index] = True
            self.invalidate_geometry()
        return index, is_new, refitted

    def refit(self) -> float:
        """Full SMACOF refit, Procrustes-aligned to the previous map.

        Returns the normalized stress of the refit embedding. The refit
        is timed into the ``mapping.refit_seconds`` histogram (and the
        period's row); the refit count, the state-space size at refit
        time and the solve's convergence, iterations and raw stress are
        recorded.
        """
        n = len(self)
        if n < 3:
            self._new_since_refit = 0
            return 0.0
        with self.telemetry.stage("mapping.refit"):
            target = pairwise_distances(self.representatives.points)
            result = smacof(
                target, n_components=2, init=self.coords, max_iter=REFIT_MAX_ITER
            )
            aligned, _, _ = procrustes_align(self.coords, result.embedding)
            self.coords[...] = aligned
            self._new_since_refit = 0
            self.invalidate_geometry()
            stress = normalized_stress(self.coords, target)
        self._c_refits.inc()
        self._g_refit_states.set(n)
        if result.converged:
            self._c_smacof_converged.inc()
        self._h_smacof_iterations.observe(float(result.iterations))
        self._g_smacof_stress.set(float(result.stress))
        return stress

    def stress(self) -> float:
        """Current normalized stress of the map (0 for tiny maps)."""
        if len(self) < 3:
            return 0.0
        target = pairwise_distances(self.representatives.points)
        return normalized_stress(self.coords, target)

    # -- geometry cache ----------------------------------------------------
    def invalidate_geometry(self) -> None:
        """Drop the cached :class:`ViolationGeometry`.

        Every method here that changes the table calls this: a new
        state, a sticky relabel to VIOLATION, a refit, a quarantine, a
        hard reset (:meth:`clear`) and a bulk :meth:`load`.
        """
        if self._geometry is not None:
            self._geometry = None
            self._c_geometry_invalidations.inc()

    def geometry(self) -> ViolationGeometry:
        """The current violation-range geometry, cached until dirtied.

        Rebuilds materialize the violation centers, the Rayleigh scale
        and all radii in one broadcasted distance pass, timed into
        ``geometry.rebuild_seconds``; cache hits and rebuilds are counted.
        """
        cached = self._geometry
        if cached is not None:
            self._c_geometry_hits.inc()
            return cached
        with self.telemetry.stage("geometry.rebuild"):
            geometry = self._build_geometry()
        self._c_geometry_rebuilds.inc()
        self._geometry = geometry
        return geometry

    def _build_geometry(self) -> ViolationGeometry:
        """Materialize centers, scale and radii for the current map.

        The arithmetic mirrors the scalar reference path
        (``tests/support/geometry_reference.py``) operation for
        operation (same subtract/square/sum/sqrt/exp sequence), so the
        vectorized votes are bit-identical to the scalar ones.
        """
        violations, safe = self.violation_indices, self.safe_indices
        c = self.coordinate_scale()
        centers = self.coords[violations]
        if self.radius_law == "fixed":
            radii = np.full(violations.size, float(self.fixed_radius))
        elif safe.size == 0:
            # No safe knowledge at all: fall back to the Rayleigh
            # peak radius so unexplored space is treated cautiously.
            fallback = c * float(np.exp(-0.5)) if c > 0 else 0.0
            radii = np.full(violations.size, fallback)
        elif c <= 0 or not violations.size:
            radii = np.zeros(violations.size)
        else:
            # The subtract/square/sum/sqrt of the scalar reference, on
            # (v, s) planes: x and y offsets to every safe state.
            (cx, cy), (sx, sy) = centers.T, self.coords[safe].T
            dx, dy = cx[:, None] - sx, cy[:, None] - sy
            nearest_safe = np.sqrt(dx * dx + dy * dy).min(axis=1)
            radii = nearest_safe * np.exp(
                -(nearest_safe * nearest_safe) / (2.0 * c * c)
            )
        return ViolationGeometry(
            n_states=len(self),
            scale=c,
            violation_indices=violations,
            centers=centers,
            radii=radii,
        )

    # -- quarantine --------------------------------------------------------
    def quarantine(self, indices) -> int:
        """Remove (quarantine) states whose learned rows are poisoned.

        Used by the model-health watchdog when a representative's
        coordinates or high-dimensional vector went non-finite: the
        offending rows leave the table in one compaction, later states
        shift down, and the violation geometry is invalidated. Returns
        how many states were removed.

        State *indices* held by external bookkeeping (mapping history,
        figures) are not rewritten — they refer to the map as it was at
        record time, exactly as they already do across refits.
        """
        removed = self.representatives.remove_indices(indices)
        if removed:
            self._new_since_refit = min(self._new_since_refit, len(self))
            self.invalidate_geometry()
        return removed

    def clear(self) -> None:
        """Forget every state in place, with the refit progress and the
        geometry cache (the watchdog's hard reset). The next sample may
        be of any width. Counters keep their totals."""
        self.representatives.clear()
        self._new_since_refit = 0
        self.invalidate_geometry()

    def load(self, points: np.ndarray, coords: np.ndarray, violation) -> None:
        """Replace the map with the rows ``(n, d)`` ``points``, ``(n, 2)``
        ``coords`` and ``n`` ``violation`` flags (template reuse). Raises
        ``ValueError``, leaving the map empty, when a row lies within
        epsilon of an earlier one."""
        self.clear()
        table = self.representatives
        for row in points:
            index, is_new = table.assign(row)
            if not is_new:
                self.clear()
                raise ValueError(
                    "map rows are not epsilon-separated; "
                    f"row {len(table)} merged into row {index} on load"
                )
        table.coords[...] = coords
        table.violation[...] = violation

    def geometry_stats(self) -> Dict[str, int]:
        """Cache accounting: the ``geometry.*`` counters so far."""
        return {
            "cache_hits": int(self._c_geometry_hits.value),
            "rebuilds": int(self._c_geometry_rebuilds.value),
            "invalidations": int(self._c_geometry_invalidations.value),
        }

    # -- violation-range geometry ------------------------------------------
    def violation_ranges(self) -> List[Tuple[np.ndarray, float]]:
        """``(center, radius)`` for every violation-state's range disc."""
        return self.geometry().ranges()

    def violation_vote(self, candidates: np.ndarray) -> int:
        """How many candidate points fall inside a violation-range."""
        candidates = np.asarray(candidates, dtype=float)
        if candidates.ndim != 2 or candidates.shape[1] != 2:
            raise ValueError(f"expected (n, 2) candidates, got {candidates.shape}")
        return self.geometry().vote(candidates)
