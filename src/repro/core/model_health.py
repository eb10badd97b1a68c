"""Model-health watchdog: learned-state invariants, quarantine, rollback.

The exception firewall (``StayAway._call_stage``) contains *loud*
stage failures, one period at a time; this module contains the silent
ones. A NaN that escapes SMACOF, a degenerate geometry rebuild or a
poisoned representative does not raise — it quietly corrupts the
learned model, and every prediction made over it afterwards is
garbage. Production
interference managers treat the controller's own model as a fallible
component; the reproduction does the same:

* every period the watchdog checks **learned-state invariants**: finite
  2-D coordinates and representative vectors, index-aligned
  labels/coords/representatives, finite non-negative violation-range
  radii and scale, finite step-histogram samples, a positive finite
  beta, and normalized stress that neither diverges nor goes
  non-finite;
* on violation it **heals** with the least destructive repair that
  fits: rebuild the violation geometry when only the materialized cache
  is poisoned, **quarantine** the offending representatives when
  individual rows went bad, **roll back** the state space and
  trajectory models to the last-known-good snapshot for structural or
  model-wide damage, and as a last resort hard-reset the learned state
  and relearn;
* after every clean check it refreshes the **last-known-good snapshot**
  (:class:`_ModelSnapshot`, held in memory) every ``SNAPSHOT_INTERVAL``
  periods.

Quarantines, rollbacks and snapshot refreshes are recorded in the
:class:`~repro.core.events.EventLog` and counted in the telemetry
registry (surfaced under ``summary()["telemetry"]["containment"]``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import StayAwayConfig
from repro.core.events import EventKind, EventLog
from repro.core.state_space import StateLabel, StateSpace
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
#: learning. Checked per-row (ungated) so garbage cannot slip into a
#: last-known-good snapshot while size-gated checks are still off.
MAGNITUDE_LIMIT = 1e6

#: Periods between automatic last-known-good snapshots (taken only
#: after a clean check).
SNAPSHOT_INTERVAL = 50


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


class _SnapshotMismatch(RuntimeError):
    """A snapshot that does not fit the live controller it would roll back."""


def _rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-safe bit-generator state."""
    return json.loads(json.dumps(rng.bit_generator.state, default=int))


def _mode_model_state(model) -> Dict[str, Any]:
    return {
        "distances": [float(v) for v in model.distances.samples],
        "angles": [float(v) for v in model.angles.samples],
        "steps_observed": int(model.steps_observed),
        "last_point": (
            None if model.last_point is None else [float(v) for v in model.last_point]
        ),
    }


@dataclass
class _ModelSnapshot:
    """The watchdog's in-memory copy of a controller's learned models.

    Captured state: the deduplicated state space (representatives,
    coordinates, labels, refit bookkeeping), the per-execution-mode
    step/angle histograms, the predictor RNG stream and the
    controller's step-distance continuity. The throttle machine is not
    part of it: a rollback never touches the pause-set.
    """

    payload: Dict[str, Any]

    @classmethod
    def capture(cls, controller: "StayAway", tick: int) -> "_ModelSnapshot":
        """Snapshot a live controller's learned models at ``tick``."""
        space = controller.state_space
        bank = controller.predictor.modes
        payload: Dict[str, Any] = {
            "captured_tick": int(tick),
            "state_space": {
                "representatives": space.representatives.points.tolist(),
                "counts": space.representatives.counts.tolist(),
                "coords": space.coords.tolist(),
                "labels": [label.value for label in space.labels],
                "epsilon": float(space.representatives.epsilon),
                "refit_count": int(space.refit_count),
                "new_since_refit": int(space._new_since_refit),
            },
            "modes": {
                mode.value: _mode_model_state(model)
                for mode, model in bank.models.items()
            },
            "mode_bank": {
                "current_mode": (
                    None if bank.current_mode is None else bank.current_mode.value
                ),
                "mode_switches": int(bank.mode_switches),
            },
            "predictor_rng": _rng_state(controller.predictor.rng),
            "controller": {
                "prev_coords": (
                    None
                    if controller._prev_coords is None
                    else [float(v) for v in controller._prev_coords]
                ),
                "prev_mode": (
                    None
                    if controller._prev_mode is None
                    else controller._prev_mode.value
                ),
            },
        }
        return cls(payload=payload)

    def restore_models_into(self, controller: "StayAway") -> None:
        """Roll a *running* controller's learned models back to this snapshot.

        The state space is restored **in place** (every live reference
        — the mapping pipeline, the template exporter — keeps seeing the
        same object), and the per-mode trajectory models, the predictor
        RNG stream and the controller's step-distance continuity are
        reset to snapshot time. The throttle machine is deliberately
        left alone: its pause-set reflects *actual* container states,
        which a model rollback must not contradict.

        The snapshot's representative dimensionality must match the
        running space (same normalizer); a mismatch raises
        :class:`_SnapshotMismatch`.
        """
        ss = self.payload["state_space"]
        space = controller.state_space
        if ss["representatives"] and len(space.representatives._points):
            snap_dim = len(ss["representatives"][0])
            if space.representatives.dimension not in (None, snap_dim):
                raise _SnapshotMismatch(
                    f"snapshot dimension {snap_dim} != live space "
                    f"dimension {space.representatives.dimension}"
                )
        self._restore_state_space_into(space, ss)
        self._restore_learned_models(controller)

    def _restore_state_space_into(self, space: StateSpace, ss: Dict[str, Any]) -> None:
        """Overwrite a state space's learned content with the payload's."""
        space.representatives._points = [
            np.asarray(row, dtype=float) for row in ss["representatives"]
        ]
        space.representatives._counts = [int(c) for c in ss["counts"]]
        space.representatives.invalidate_index()
        if space.representatives._points:
            space.representatives.dimension = space.representatives._points[0].shape[0]
        space.coords = np.asarray(ss["coords"], dtype=float).reshape(-1, 2)
        space.labels = [StateLabel(value) for value in ss["labels"]]
        space.refit_count = int(ss["refit_count"])
        space._new_since_refit = int(ss["new_since_refit"])
        if len(space.labels) != len(space.representatives._points) or (
            space.coords.shape[0] != len(space.labels)
        ):
            raise _SnapshotMismatch("inconsistent state-space payload")
        # Coords/labels were rewritten wholesale behind the cache: any
        # violation geometry materialized before this point is stale.
        space.invalidate_geometry()

    def _restore_learned_models(self, controller: "StayAway") -> None:
        """Restore mode models, predictor RNG and step continuity."""
        data = self.payload
        bank = controller.predictor.modes
        for mode_value, state in data["modes"].items():
            model = bank.models[ExecutionMode(mode_value)]
            model.distances.clear()
            model.distances.extend([float(v) for v in state["distances"]])
            model.angles.clear()
            model.angles.extend([float(v) for v in state["angles"]])
            model.steps_observed = int(state["steps_observed"])
            last = state["last_point"]
            if last is not None:
                last = np.asarray(last, dtype=float)
                last.flags.writeable = False  # as TrajectoryModel.observe keeps it
            model._last_point = last
        bank_state = data["mode_bank"]
        bank._current_mode = (
            None
            if bank_state["current_mode"] is None
            else ExecutionMode(bank_state["current_mode"])
        )
        bank.mode_switches = int(bank_state["mode_switches"])
        controller.predictor.rng.bit_generator.state = data["predictor_rng"]
        cs = data["controller"]
        controller._prev_coords = (
            None
            if cs["prev_coords"] is None
            else np.asarray(cs["prev_coords"], dtype=float)
        )
        controller._prev_mode = (
            None if cs["prev_mode"] is None else ExecutionMode(cs["prev_mode"])
        )

    @property
    def captured_tick(self) -> int:
        """Tick at which the snapshot was taken."""
        return int(self.payload["captured_tick"])

    @property
    def state_count(self) -> int:
        """Number of mapped states in the snapshot."""
        return len(self.payload["state_space"]["labels"])


@dataclass(frozen=True)
class HealthIssue:
    """One learned-state invariant violation."""

    check: str
    detail: str


@dataclass
class HealthReport:
    """Outcome of one watchdog inspection."""

    tick: int
    issues: List[HealthIssue] = field(default_factory=list)
    #: State indices whose learned rows (coords/representatives) are bad.
    bad_states: List[int] = field(default_factory=list)
    #: Execution modes whose step histograms hold non-finite samples.
    bad_modes: List[ExecutionMode] = field(default_factory=list)
    #: Structural damage (length mismatches) that per-row quarantine
    #: cannot repair.
    structural: bool = False
    #: Poisoning confined to the materialized geometry cache while the
    #: underlying coords/labels are clean.
    cache_poisoned: bool = False
    #: Beta degenerated (non-finite or non-positive).
    beta_bad: bool = False

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.issues


class ModelHealthWatchdog:
    """Per-period learned-state invariant checks with tiered healing.

    Parameters
    ----------
    config:
        The controller's :class:`~repro.core.config.StayAwayConfig`
        (the beta reset value).
    events:
        Event log receiving quarantine/rollback/snapshot records.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` for the
        ``containment.*`` counters.
    """

    def __init__(
        self, config: StayAwayConfig, events: EventLog, telemetry=None
    ) -> None:
        self.config = config
        self.events = events
        self.last_good: Optional[_ModelSnapshot] = None
        self.last_snapshot_tick: Optional[int] = None
        self.checks = 0
        self.violations = 0
        self.quarantines = 0
        self.quarantined_states = 0
        self.rollbacks = 0
        self.geometry_repairs = 0
        self.resets = 0
        self.beta_resets = 0
        #: The last ``(coords bytes, representative-matrix bytes)``
        #: whose every row passed :func:`_bad_rows`, and the stress of
        #: that content once computed — see :meth:`_stress`.
        self._clean: Tuple[Tuple[bytes, bytes], Optional[float]] = ((b"", b""), None)
        self._counters = None
        if telemetry is not None:
            self._counters = {
                name: telemetry.counter(f"containment.{name}", help=help_text)
                for name, help_text in (
                    ("watchdog_checks", "model-health inspections run"),
                    ("watchdog_violations", "inspections that found a breach"),
                    ("quarantines", "poisoned representatives quarantined"),
                    ("rollbacks", "model rollbacks to last-known-good"),
                    ("geometry_repairs", "poisoned geometry caches rebuilt"),
                    ("model_resets", "hard resets of the learned state"),
                )
            }

    def _count(self, name: str, amount: int = 1) -> None:
        if self._counters is not None:
            self._counters[name].inc(amount)

    # -- inspection --------------------------------------------------------
    def inspect(self, tick: int, controller: "StayAway") -> HealthReport:
        """Check every learned-state invariant; never raises."""
        report = HealthReport(tick=tick)
        space = controller.state_space
        self.checks += 1
        self._count("watchdog_checks")

        # 1. Structural consistency: labels, coords and representatives
        #    must stay index-aligned.
        n_labels = len(space.labels)
        n_coords = int(space.coords.shape[0])
        n_reps = len(space.representatives)
        if not (n_labels == n_coords == n_reps):
            report.structural = True
            report.issues.append(
                HealthIssue(
                    "consistency",
                    f"labels={n_labels} coords={n_coords} reps={n_reps}",
                )
            )

        # 2. Per-row sanity of the learned map: finite and of plausible
        #    magnitude (both live in normalized spaces of order-1
        #    values; 1e9 is corruption, not learning). One pass over
        #    each matrix: its bytes, against those that last passed.
        if not report.structural and n_coords:
            points = space.representatives.points
            content = (space.coords.tobytes(), points.tobytes())
            bad: Set[int] = set()
            if self._clean[0] != content:
                bad = {*_bad_rows(space.coords), *_bad_rows(points)}
                if not bad:
                    self._clean = (content, None)
            if bad:
                report.bad_states = sorted(bad)
                report.issues.append(
                    HealthIssue(
                        "finite-rows",
                        f"{len(bad)} state row(s) non-finite: "
                        f"{report.bad_states[:8]}",
                    )
                )

        # 3. Materialized violation geometry: radii non-negative and
        #    finite, scale and centers finite. Only the *cached* object
        #    is checked — rebuilding here would mask in-place poisoning.
        cached = space._geometry
        if cached is not None:
            radii = cached.radii.tolist()
            geometry_ok = (
                isfinite(cached.scale)
                and all(map(isfinite, radii + cached.centers.ravel().tolist()))
                and min(radii, default=0.0) >= 0
            )
            if not geometry_ok:
                report.issues.append(
                    HealthIssue("geometry", "cached violation geometry poisoned")
                )
                if not report.bad_states and not report.structural:
                    report.cache_poisoned = True

        # 4. Trajectory models: step histograms must stay finite. The
        #    windows keep their own count of non-finite values.
        for mode, model in controller.predictor.modes.models.items():
            last = model.last_point
            finite = (
                model.distances.finite
                and model.angles.finite
                and (last is None or all(map(isfinite, last.tolist())))
            )
            if not finite:
                report.bad_modes.append(mode)
                report.issues.append(
                    HealthIssue("histograms", f"{mode.value} model non-finite")
                )

        # 5. Beta stays a usable threshold.
        beta = controller.throttle.beta
        if not isfinite(beta) or beta <= 0:
            report.beta_bad = True
            report.issues.append(HealthIssue("beta", f"beta degenerated to {beta}"))

        # 6. Stress non-divergence (only meaningful on a clean map of
        #    useful size; a poisoned map is already flagged above).
        if (
            not report.issues
            and n_labels >= MIN_STATES_FOR_STRESS
        ):
            stress = self._stress(space)
            if not isfinite(stress) or stress > STRESS_DIVERGENCE:
                report.structural = True
                report.issues.append(
                    HealthIssue("stress", f"normalized stress diverged to {stress}")
                )

        if report.issues:
            self.violations += 1
            self._count("watchdog_violations")
        return report

    def _stress(self, space: StateSpace) -> float:
        """``space.stress()``, recomputed only when its inputs changed.

        The memo is keyed on the *content* of ``coords`` and the
        representative matrix: :meth:`inspect` copies their bytes every
        period, compares them against the last content that passed the
        row check, and asks for the stress only after that, so
        ``_clean`` holds this period's content. A version counter
        bumped by the state space's own mutators would miss exactly
        what this check exists for: writes into the live arrays from
        outside them.
        """
        content, stress = self._clean
        if stress is None:
            stress = space.stress()
            self._clean = (content, stress)
        return stress

    # -- healing -----------------------------------------------------------
    def heal(self, tick: int, controller: "StayAway", report: HealthReport) -> List[str]:
        """Apply the least destructive repairs for a bad report.

        Returns the list of actions taken (``geometry-rebuild``,
        ``quarantine``, ``rollback``, ``beta-reset``, ``reset``).
        """
        actions: List[str] = []
        if report.ok:
            return actions
        space = controller.state_space

        if report.beta_bad:
            controller.throttle.beta = self.config.beta_initial
            self.beta_resets += 1
            actions.append("beta-reset")

        if report.cache_poisoned:
            # Underlying rows are clean — drop the cache and let the
            # next vote rebuild from truth.
            space.invalidate_geometry()
            self.geometry_repairs += 1
            self._count("geometry_repairs")
            actions.append("geometry-rebuild")

        needs_rollback = report.structural or bool(report.bad_modes)
        if (
            not needs_rollback
            and report.bad_states
            and len(report.bad_states) < len(space.labels)
        ):
            removed = space.quarantine(report.bad_states)
            self.quarantines += 1
            self.quarantined_states += removed
            self._count("quarantines", removed)
            self.events.record(
                tick,
                EventKind.MODEL_QUARANTINE,
                states=list(report.bad_states),
                removed=removed,
            )
            actions.append("quarantine")
        elif report.bad_states:
            needs_rollback = True

        if needs_rollback:
            if self.last_good is not None and self._rollback(tick, controller):
                actions.append("rollback")
            else:
                self._hard_reset(tick, controller)
                actions.append("reset")
            # The map was rewritten under the outstanding forecast; a
            # quarantine only drops rows (every surviving coordinate
            # stays put), so it leaves the forecast armed.
            controller.predictor.invalidate_pending()
        return actions

    def _rollback(self, tick: int, controller: "StayAway") -> bool:
        assert self.last_good is not None
        try:
            self.last_good.restore_models_into(controller)
        except _SnapshotMismatch:
            return False
        self.rollbacks += 1
        self._count("rollbacks")
        self.events.record(
            tick,
            EventKind.MODEL_ROLLBACK,
            snapshot_tick=self.last_good.captured_tick,
            states=self.last_good.state_count,
        )
        return True

    def _hard_reset(self, tick: int, controller: "StayAway") -> None:
        """Last resort: drop the learned state entirely and relearn."""
        space = controller.state_space
        space.representatives._points = []
        space.representatives._counts = []
        space.representatives.invalidate_index()
        space.coords = np.empty((0, 2))
        space.labels = []
        space._new_since_refit = 0
        space.invalidate_geometry()
        for model in controller.predictor.modes.models.values():
            model.distances.clear()
            model.angles.clear()
            model.steps_observed = 0
            model.break_continuity()
        self.resets += 1
        self._count("model_resets")
        self.events.record(tick, EventKind.MODEL_ROLLBACK, snapshot_tick=None, reset=True)

    # -- snapshots ---------------------------------------------------------
    def maybe_snapshot(self, tick: int, controller: "StayAway") -> bool:
        """Refresh the last-known-good snapshot every ``SNAPSHOT_INTERVAL`` ticks.

        Only called after a clean inspection — a snapshot of a poisoned
        model would make rollback itself an attack vector. Returns True
        when a new snapshot was captured.
        """
        if (
            self.last_snapshot_tick is not None
            and tick - self.last_snapshot_tick < SNAPSHOT_INTERVAL
        ):
            return False
        self.last_good = _ModelSnapshot.capture(controller, tick=tick)
        self.last_snapshot_tick = tick
        self.events.record(
            tick, EventKind.MODEL_SNAPSHOT, states=self.last_good.state_count
        )
        return True

    # -- the per-period entry point ----------------------------------------
    def check_and_heal(self, tick: int, controller: "StayAway") -> List[str]:
        """Inspect, heal, refresh the snapshot; returns actions taken."""
        report = self.inspect(tick, controller)
        if report.ok:
            self.maybe_snapshot(tick, controller)
            return []
        return self.heal(tick, controller, report)

    def summary(self) -> dict:
        """Counters for reports and tests."""
        return {
            "checks": self.checks,
            "violations": self.violations,
            "quarantines": self.quarantines,
            "quarantined_states": self.quarantined_states,
            "rollbacks": self.rollbacks,
            "geometry_repairs": self.geometry_repairs,
            "resets": self.resets,
            "beta_resets": self.beta_resets,
            "snapshot_tick": self.last_snapshot_tick,
        }


__all__ = [
    "HealthIssue",
    "HealthReport",
    "ModelHealthWatchdog",
    "MIN_STATES_FOR_STRESS",
    "STRESS_DIVERGENCE",
]
