"""Model-health watchdog: learned-state invariants and in-place heals.

The exception firewall (``StayAway._call_stage``) contains *loud*
stage failures, one period at a time; this module contains the silent
ones. A NaN that escapes SMACOF, a degenerate geometry rebuild or a
poisoned representative does not raise — it quietly corrupts the
learned model, and every prediction made over it afterwards is
garbage. Production
interference managers treat the controller's own model as a fallible
component; the reproduction does the same:

* every period the watchdog checks **learned-state invariants**: finite
  2-D coordinates and representative vectors, finite non-negative
  violation-range radii and scale, finite step-histogram samples, a
  positive finite beta, and normalized stress that neither diverges
  nor goes non-finite;
* on violation it **heals in place**, with the least destructive of
  three tiers that fits:

  1. **rebuild** the violation geometry when only the materialized
     cache is poisoned, or **quarantine** the offending
     representatives when individual map rows went bad;
  2. **mode reset**: a trajectory mode model holding a non-finite value
     loses its two step histograms, its step count and its continuity,
     and relearns from the next mapped period (PAPER.md §6: relearning
     is cheap);
  3. **hard reset**: diverged stress, or a map whose every row is
     bad, resets every mode and clears the map.

Nothing is kept to roll back to. Quarantines and resets are recorded in
the :class:`~repro.core.events.EventLog`. Every count
:meth:`ModelHealthWatchdog.summary` reports is one ``containment.*``
counter in the controller's registry, so the exposition and
``summary()["telemetry"]["containment"]["watchdog"]`` agree.
"""

from __future__ import annotations

from math import isfinite, sqrt
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.config import StayAwayConfig
from repro.core.events import EventKind, EventLog
from repro.core.state_space import StateSpace
from repro.mds.distances import pairwise_distances
from repro.mds.stress import raw_stress
from repro.telemetry import Telemetry
from repro.trajectory.modes import ExecutionMode

if TYPE_CHECKING:
    from repro.core.controller import StayAway

#: Stress above this (on a map of >= MIN_STATES_FOR_STRESS states)
#: means the embedding degenerated — a healthy SMACOF fit sits far
#: below it.
STRESS_DIVERGENCE = 0.95
MIN_STATES_FOR_STRESS = 10

#: Coordinates/representatives live in a normalized metric space with
#: magnitudes of order 1; anything beyond this is corruption, not
#: learning. Checked per-row (ungated), from the first mapped state on.
MAGNITUDE_LIMIT = 1e6


def _bad_rows(matrix: np.ndarray) -> List[int]:
    """Rows of ``matrix`` holding a non-finite or implausibly large entry.

    ``abs(x) <= MAGNITUDE_LIMIT`` is False for NaN and for both
    infinities, so the one comparison is the whole test.

    Parameters
    ----------
    matrix:
        ``(S, D)`` learned rows (map coordinates or representatives).
    """
    ok = np.abs(matrix) <= MAGNITUDE_LIMIT
    if ok.all():
        return []
    return [int(i) for i in np.nonzero(~ok.all(axis=1))[0]]


def _kept_rows(matrix: np.ndarray, before: bytes, content: bytes) -> int:
    """``before``'s row count when it is a whole-row prefix of ``content``
    (``matrix.tobytes()``: the matrix only grew by appended rows), else 0."""
    row_bytes = matrix.shape[1] * matrix.itemsize
    if row_bytes and len(before) % row_bytes == 0 and content.startswith(before):
        return len(before) // row_bytes
    return 0


def _new_bad_rows(matrix: np.ndarray, clean: bytes, content: bytes) -> List[int]:
    """:func:`_bad_rows` of ``matrix`` past the rows :func:`_kept_rows`
    keeps of ``clean``, the bytes of a matrix whose every row passed."""
    start = _kept_rows(matrix, clean, content)
    return [start + i for i in _bad_rows(matrix[start:])]


def _stress_sums(coords: np.ndarray, points: np.ndarray) -> Tuple[float, float]:
    """``(sum (d - delta)^2, sum delta^2)`` over unordered pairs: what
    :func:`~repro.mds.stress.normalized_stress` divides, summed alike."""
    target = pairwise_distances(points)
    return raw_stress(coords, target), float(np.sum(target**2) / 2.0)


def _appended_sums(coords: np.ndarray, points: np.ndarray, start: int) -> Tuple[float, float]:
    """:func:`_stress_sums`' terms of the pairs rows ``start`` on add to the rows before them."""
    raw = total = 0.0
    for row in range(start, coords.shape[0]):
        target = np.sqrt(np.add.reduce(np.square(points[:row] - points[row]), axis=1))
        error = np.sqrt(np.add.reduce(np.square(coords[:row] - coords[row]), axis=1))
        error -= target
        raw += float(error @ error)
        total += float(target @ target)
    return raw, total


class HealthIssue(NamedTuple):
    """One learned-state invariant violation."""

    check: str
    detail: str


class HealthReport(NamedTuple):
    """The breach one watchdog inspection found (one issue or more)."""

    tick: int
    issues: List[HealthIssue]
    #: State indices whose learned rows (coords/representatives) are bad.
    bad_states: List[int]
    #: Execution modes whose step histograms hold non-finite samples.
    bad_modes: List[ExecutionMode]
    #: Diverged stress: damage to the whole embedding that per-row
    #: quarantine cannot repair.
    structural: bool
    #: Poisoning confined to the materialized geometry cache while the
    #: underlying rows are clean.
    cache_poisoned: bool
    #: Beta degenerated (non-finite or non-positive).
    beta_bad: bool


class ModelHealthWatchdog:
    """Per-period learned-state invariant checks with tiered healing.

    Parameters
    ----------
    config:
        The controller's :class:`~repro.core.config.StayAwayConfig`
        (the beta reset value).
    events:
        Event log receiving quarantine and reset records.
    telemetry:
        The :class:`~repro.telemetry.Telemetry` whose registry holds the
        ``containment.*`` counters; the controller passes its own, a
        private disabled one by default.
    """

    def __init__(
        self, config: StayAwayConfig, events: EventLog, telemetry=None
    ) -> None:
        self.config = config
        self.events = events
        #: The last ``(coords bytes, representative-matrix bytes)``
        #: whose every row passed :func:`_bad_rows`.
        self._clean: Tuple[bytes, bytes] = (b"", b"")
        #: The content whose stress was last computed and its two
        #: :func:`_stress_sums` — see :meth:`_stress`.
        self._sums: Tuple[Tuple[bytes, bytes], float, float] = ((b"", b""), 0.0, 0.0)
        #: The last cached geometry's ``(radii bytes, centers bytes,
        #: scale)`` that passed the geometry check.
        self._clean_geometry: Tuple[bytes, bytes, float] = (b"", b"", float("nan"))
        if telemetry is None:
            telemetry = Telemetry(enabled=False)
        #: Each :meth:`summary` key and the counter that holds it.
        self._counters = {
            key: telemetry.counter(f"containment.{name}", help=help_text)
            for key, name, help_text in (
                ("checks", "watchdog_checks", "model-health inspections run"),
                ("violations", "watchdog_violations", "inspections that found a breach"),
                ("quarantines", "quarantines", "quarantine heals"),
                ("quarantined_states", "quarantined_states", "poisoned states quarantined"),
                ("mode_resets", "mode_resets", "heals that reset trajectory mode models"),
                ("geometry_repairs", "geometry_repairs", "poisoned geometry caches rebuilt"),
                ("resets", "model_resets", "hard resets of the learned state"),
                ("beta_resets", "beta_resets", "degenerate betas reset"),
            )
        }

    def _count(self, key: str, amount: int = 1) -> None:
        self._counters[key].inc(amount)

    # -- inspection --------------------------------------------------------
    def inspect(self, tick: int, controller: "StayAway") -> Optional[HealthReport]:
        """Check every learned-state invariant; never raises.

        Returns ``None`` when every invariant held: a report is built
        only for a breach.
        """
        issues: List[HealthIssue] = []
        bad_states: List[int] = []
        bad_modes: List[ExecutionMode] = []
        cache_poisoned = beta_bad = structural = False
        space = controller.state_space
        self._count("checks")

        # 1. Per-row sanity of the learned map: finite and of plausible
        #    magnitude (both live in normalized spaces of order-1
        #    values; 1e9 is corruption, not learning). One pass over
        #    each matrix: its bytes, against those that last passed;
        #    rows appended behind them are the only ones re-checked.
        n = len(space)
        if n:
            points = space.representatives.points
            content = (space.coords.tobytes(), points.tobytes())
            clean = self._clean
            bad: Set[int] = set()
            if clean != content:
                bad = {
                    *_new_bad_rows(space.coords, clean[0], content[0]),
                    *_new_bad_rows(points, clean[1], content[1]),
                }
                if not bad:
                    self._clean = content
            if bad:
                bad_states = sorted(bad)
                issues.append(
                    HealthIssue(
                        "finite-rows",
                        f"{len(bad)} state row(s) non-finite: {bad_states[:8]}",
                    )
                )

        # 2. Materialized violation geometry: radii non-negative and
        #    finite, scale and centers finite. Only the *cached* object
        #    is checked — rebuilding here would mask in-place poisoning.
        #    Content that passed before passes again: the check re-runs
        #    only when the bytes differ from the last clean ones.
        cached = space._geometry
        if cached is not None:
            content = (cached.radii.tobytes(), cached.centers.tobytes(), cached.scale)
            geometry_ok = content == self._clean_geometry
            if not geometry_ok:
                radii = cached.radii.tolist()
                geometry_ok = (
                    isfinite(cached.scale)
                    and all(map(isfinite, radii + cached.centers.ravel().tolist()))
                    and min(radii, default=0.0) >= 0
                )
                if geometry_ok:
                    self._clean_geometry = content
            if not geometry_ok:
                issues.append(HealthIssue("geometry", "cached violation geometry poisoned"))
                cache_poisoned = not bad_states

        # 3. Trajectory models: step histograms must stay finite. The
        #    windows keep their own count of non-finite values.
        for mode, model in controller.predictor.modes.models.items():
            last = model.last_point
            finite = (
                model.distances.finite
                and model.angles.finite
                and (last is None or all(map(isfinite, last.tolist())))
            )
            if not finite:
                bad_modes.append(mode)
                issues.append(HealthIssue("histograms", f"{mode.value} model non-finite"))

        # 4. Beta stays a usable threshold.
        beta = controller.throttle.beta
        if not isfinite(beta) or beta <= 0:
            beta_bad = True
            issues.append(HealthIssue("beta", f"beta degenerated to {beta}"))

        # 5. Stress non-divergence (only meaningful on a clean map of
        #    useful size; a poisoned map is already flagged above).
        if not issues and n >= MIN_STATES_FOR_STRESS:
            stress = self._stress(space)
            if not isfinite(stress) or stress > STRESS_DIVERGENCE:
                structural = True
                issues.append(
                    HealthIssue("stress", f"normalized stress diverged to {stress}")
                )

        if not issues:
            return None
        self._count("violations")
        return HealthReport(
            tick, issues, bad_states, bad_modes, structural, cache_poisoned, beta_bad
        )

    def _stress(self, space: StateSpace) -> float:
        """``space.stress()``, kept as its two pair sums.

        The memo is keyed on the *content* of ``coords`` and the
        representative matrix: :meth:`inspect` copies their bytes every
        period, compares them against the last content that passed the
        row check, and asks for the stress only after that, so
        ``_clean`` holds this period's content. When both matrices only
        grew by the same appended rows, only their pair terms are added;
        any other change sums every pair again. A version counter
        bumped by the state space's own mutators would miss exactly
        what this check exists for: writes into the live arrays from
        outside them.
        """
        content = self._clean
        scored, raw, total = self._sums
        if scored != content:
            coords, points = space.coords, space.representatives.points
            start = _kept_rows(coords, scored[0], content[0])
            if start and start == _kept_rows(points, scored[1], content[1]):
                more_raw, more_total = _appended_sums(coords, points, start)
                raw, total = raw + more_raw, total + more_total
            else:
                raw, total = _stress_sums(coords, points)
            self._sums = (content, raw, total)
        # normalized_stress's arithmetic, a NaN denominator included.
        return 0.0 if total <= 0.0 else sqrt(raw / total)

    # -- healing -----------------------------------------------------------
    def heal(self, tick: int, controller: "StayAway", report: HealthReport) -> List[str]:
        """Apply the least destructive repairs for a bad report.

        Returns the list of actions taken (``beta-reset``,
        ``geometry-rebuild``, ``quarantine``, ``mode-reset``,
        ``reset``).
        """
        actions: List[str] = []
        space = controller.state_space

        if report.beta_bad:
            controller.throttle.beta = self.config.beta_initial
            self._count("beta_resets")
            actions.append("beta-reset")

        if report.cache_poisoned:
            # Underlying rows are clean — drop the cache and let the
            # next vote rebuild from truth.
            space.invalidate_geometry()
            self._count("geometry_repairs")
            actions.append("geometry-rebuild")

        bad_rows = len(report.bad_states)
        if report.structural or (bad_rows and bad_rows == len(space)):
            self.hard_reset(tick, controller)
            actions.append("reset")
            # The map was rewritten under the outstanding forecast. A
            # quarantine only drops rows and a mode reset leaves the map
            # alone, so both keep the forecast armed.
            controller.predictor.invalidate_pending()
            return actions

        if report.bad_states:
            removed = space.quarantine(report.bad_states)
            self._count("quarantines")
            self._count("quarantined_states", removed)
            self.events.record(
                tick,
                EventKind.MODEL_QUARANTINE,
                states=list(report.bad_states),
                removed=removed,
            )
            actions.append("quarantine")

        if report.bad_modes:
            self._reset_modes(tick, controller, report.bad_modes)
            self._count("mode_resets")
            actions.append("mode-reset")
        return actions

    def _reset_modes(
        self,
        tick: int,
        controller: "StayAway",
        modes: Iterable[ExecutionMode],
        **detail,
    ) -> None:
        """Clear the given modes' trajectory models in place: both step
        histograms, the step count and the continuity."""
        cleared = []
        for mode in modes:
            model = controller.predictor.modes.models[mode]
            model.distances.clear()
            model.angles.clear()
            model.steps_observed = 0
            model.break_continuity()
            cleared.append(mode.value)
        self.events.record(tick, EventKind.MODEL_RESET, modes=cleared, **detail)

    def hard_reset(self, tick: int, controller: "StayAway", **detail) -> None:
        """Last resort: reset every mode, then clear the map and relearn.
        ``detail`` joins the ``MODEL_RESET`` event that records it."""
        space = controller.state_space
        self._reset_modes(
            tick,
            controller,
            controller.predictor.modes.models,
            states=len(space),
            **detail,
        )
        space.clear()
        self._count("resets")

    # -- the per-period entry point ----------------------------------------
    def check_and_heal(self, tick: int, controller: "StayAway") -> List[str]:
        """Inspect and heal; returns the actions taken."""
        report = self.inspect(tick, controller)
        if report is None:
            return []
        return self.heal(tick, controller, report)

    def summary(self) -> dict:
        """The ``containment.*`` counters, by summary key."""
        return {key: int(counter.value) for key, counter in self._counters.items()}


__all__ = [
    "HealthIssue",
    "HealthReport",
    "ModelHealthWatchdog",
    "MIN_STATES_FOR_STRESS",
    "STRESS_DIVERGENCE",
]
