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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


@dataclass(frozen=True)
class ViolationGeometry:
    """Materialized violation-range geometry of one state-space snapshot.

    Everything the per-period vote needs — violation centers, the
    Rayleigh scale and every disc radius — computed once per state-space
    change via a single broadcasted distance pass, so that
    :meth:`contains` and :meth:`vote` are single vectorized NumPy
    expressions with no per-candidate recomputation.

    Instances are immutable snapshots; :class:`StateSpace` owns the
    cache and rebuilds on its mutation events (see
    :meth:`StateSpace.geometry`).

    Attributes
    ----------
    n_states:
        State-space size the snapshot was built from (consistency
        guard for callers that mutate the space behind the cache).
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

        One ``(n_candidates, n_violations)`` distance broadcast — the
        subtract/square/sum/sqrt of the scalar reference for every
        pair, after the checks :meth:`StateSpace.violation_vote` has
        made — and one boolean reduction; no Python-level loop over
        candidates.
        ``d <= fmax(r, CENTER_EPSILON)`` is ``(d <= CENTER_EPSILON) |
        (d <= r)`` for every float (``fmax``: a NaN radius must leave
        the centre test alive), read from the live ``radii`` on every
        vote: a radius written in place is voted on as written.
        """
        if self.centers.shape[0] == 0 or candidates.shape[0] == 0:
            return 0
        deltas = candidates[:, None, :] - self.centers
        distances = np.sqrt(np.add.reduce(deltas * deltas, axis=2))
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


class StateSpace:
    """Deduplicated mapped states with labels and violation-ranges.

    Parameters
    ----------
    epsilon:
        Dedup merge radius in the normalized high-dimensional space.
    refit_interval:
        Full SMACOF refit after this many new representatives.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` whose registry holds
        this space's counts (refits, the last SMACOF solve and the
        geometry cache) and whose stages time refits and rebuilds. The
        controller passes its own; a private disabled one by default.
    """

    def __init__(
        self,
        epsilon: float = 0.03,
        refit_interval: int = 40,
        radius_law: str = "rayleigh",
        fixed_radius: float = 0.05,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if radius_law not in ("rayleigh", "fixed"):
            raise ValueError(
                f"radius_law must be 'rayleigh' or 'fixed', got {radius_law!r}"
            )
        self.representatives = RepresentativeSet(epsilon=epsilon)
        self.coords: np.ndarray = np.empty((0, 2))
        self.labels: List[StateLabel] = []
        self.refit_interval = refit_interval
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
        return len(self.labels)

    def _indices_by_label(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(violation_indices, safe_indices)`` from one pass over the labels."""
        violation = StateLabel.VIOLATION
        violations: List[int] = []
        safe: List[int] = []
        for index, label in enumerate(self.labels):
            (violations if label is violation else safe).append(index)
        return np.array(violations, dtype=int), np.array(safe, dtype=int)

    @property
    def violation_indices(self) -> np.ndarray:
        """Indices of violation-states."""
        return self._indices_by_label()[0]

    @property
    def safe_indices(self) -> np.ndarray:
        """Indices of safe-states."""
        return self._indices_by_label()[1]

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
        a violation observation relabels the state stickily.
        """
        index, is_new = self.representatives.assign(normalized)
        refitted = False
        if is_new:
            coords = self._place_new(normalized)
            self.coords = (
                np.vstack([self.coords, coords[None, :]])
                if self.coords.size
                else coords[None, :]
            )
            self.labels.append(StateLabel.SAFE)
            self.invalidate_geometry()
            self._new_since_refit += 1
            if self._new_since_refit >= self.refit_interval:
                self.refit()
                refitted = True
        if violated and self.labels[index] is not StateLabel.VIOLATION:
            self.labels[index] = StateLabel.VIOLATION
            self.invalidate_geometry()
        return index, is_new, refitted

    def _place_new(self, normalized: np.ndarray) -> np.ndarray:
        """2-D coordinates for a brand-new representative."""
        n_existing = len(self)
        if n_existing == 0:
            return np.zeros(2)
        deltas = self.representatives.distances_from(normalized)[:-1]
        return place_point(self.coords, deltas)

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
            self.coords = aligned
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

        Called automatically on the three mutation events that change
        the violation-range geometry:

        * a new representative is placed (:meth:`add_sample` with a
          fresh epsilon-ball): the safe set, the coordinate ranges and
          therefore every radius may change;
        * a sticky relabel to VIOLATION (:meth:`add_sample` observing a
          violation on a previously safe state);
        * a SMACOF refit (:meth:`refit`), a hard reset (:meth:`clear`)
          or a template load rewriting ``coords`` wholesale.

        External code that mutates ``coords`` / ``labels`` directly
        (template loading) must call this explicitly — that is the
        cache contract.
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
        if cached is not None and cached.n_states == len(self):
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
        violations, safe = self._indices_by_label()
        c = self.coordinate_scale()
        if violations.size == 0:
            return ViolationGeometry(
                n_states=len(self),
                scale=c,
                violation_indices=violations,
                centers=np.empty((0, 2)),
                radii=np.empty(0),
            )
        centers = self.coords[violations]
        if self.radius_law == "fixed":
            radii = np.full(violations.size, float(self.fixed_radius))
        elif safe.size == 0:
            # No safe knowledge at all: fall back to the Rayleigh
            # peak radius so unexplored space is treated cautiously.
            fallback = c * float(np.exp(-0.5)) if c > 0 else 0.0
            radii = np.full(violations.size, fallback)
        elif c <= 0:
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
        offending rows are dropped from the representatives, the 2-D
        coordinates and the labels in one index-aligned pass, later
        states shift down, and every derived cache (the representative
        matrix, the violation geometry) is invalidated. Returns how
        many states were removed.

        State *indices* held by external bookkeeping (mapping history,
        figures) are not rewritten — they refer to the map as it was at
        record time, exactly as they already do across refits.
        """
        doomed = {int(i) for i in indices if 0 <= int(i) < len(self.labels)}
        if not doomed:
            return 0
        removed = self.representatives.remove_indices(sorted(doomed))
        keep, labels = [], []
        for index, label in enumerate(self.labels):
            if index not in doomed:
                keep.append(index)
                labels.append(label)
        self.coords = (
            self.coords[keep] if keep else np.empty((0, 2))
        )
        self.labels = labels
        self._new_since_refit = min(self._new_since_refit, len(self.labels))
        self.invalidate_geometry()
        return removed

    def clear(self) -> None:
        """Forget every state in place: representatives, coordinates and
        labels, the refit progress and the geometry cache (the
        watchdog's hard reset). Counters keep their totals."""
        self.representatives.clear()
        self.coords = np.empty((0, 2))
        self.labels = []
        self._new_since_refit = 0
        self.invalidate_geometry()

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
