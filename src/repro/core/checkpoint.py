"""Checkpoint/restore of the controller's learned state.

A controller that crashes (or is redeployed) should *resume*, not
relearn: the state space took hundreds of periods to map, beta was
tuned by observed premature resumes, and the per-mode step histograms
are the entire prediction substrate. :class:`ControllerCheckpoint`
captures all of it — plus the RNG streams and throttle machine state —
so a restored controller makes byte-identical decisions to one that
never went down.

Durability discipline:

* **atomic write** — serialize to a temporary file in the target
  directory, fsync, then ``os.replace``; a crash mid-save leaves the
  previous checkpoint intact;
* **checksum** — the payload carries a SHA-256 over its canonical JSON;
  a truncated or bit-flipped file fails loudly
  (:class:`CheckpointError`) instead of resurrecting garbage;
* **schema** — a file whose checksum holds is still untrusted input:
  :meth:`ControllerCheckpoint.load` checks every field (presence, type,
  enum value, finiteness, lengths, RNG state) before anything is
  applied, so a restore never fails halfway.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.action import ResumeReason
from repro.core.events import EventKind
from repro.core.state_space import StateLabel, StateSpace
from repro.trajectory.modes import ExecutionMode

FORMAT = "stayaway-checkpoint"
VERSION = 1


class CheckpointError(RuntimeError):
    """Raised on corrupt, mismatched or misapplied checkpoints."""


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: Dict[str, Any]) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _rng_state(rng: np.random.Generator) -> Dict[str, Any]:
    """JSON-safe bit-generator state."""
    return json.loads(json.dumps(rng.bit_generator.state, default=int))


def _bad(path: str, problem: str) -> CheckpointError:
    return CheckpointError(f"checkpoint field {path} {problem}")


def _field(payload: Dict[str, Any], path: str) -> Any:
    """The value at a dotted ``path``, or the error naming it."""
    value: Any = payload
    keys = path.split(".")
    for depth, key in enumerate(keys, start=1):
        if not isinstance(value, dict) or key not in value:
            raise _bad(".".join(keys[:depth]), "is missing")
        value = value[key]
    return value


def _int(value: Any, path: str, optional: bool = False) -> None:
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(path, f"must be an integer, got {value!r}")


def _floats(value: Any, path: str, length: Optional[int] = None, optional: bool = False) -> None:
    """A list of finite numbers (of ``length`` when given)."""
    if optional and value is None:
        return
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise _bad(path, f"must be a list of {length or 'any number of'} values")
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)) or not math.isfinite(item):
            raise _bad(path, f"must hold finite numbers, got {item!r}")


def _member(value: Any, enum_type, path: str, optional: bool = False) -> None:
    if optional and value is None:
        return
    try:
        enum_type(value)
    except (TypeError, ValueError):
        raise _bad(path, f"is not a {enum_type.__name__}: {value!r}") from None


def _validate(payload: Dict[str, Any]) -> None:
    """Raise :class:`CheckpointError` naming the first bad field."""
    for path in (
        "captured_tick",
        "state_space.refit_count",
        "state_space.new_since_refit",
        "mode_bank.mode_switches",
        "throttle.throttle_count",
        "throttle.resume_count",
        "throttle.probe_resume_count",
        "throttle.stagnant_periods",
    ):
        _int(_field(payload, path), path)
    _int(_field(payload, "throttle.last_resume_tick"), "throttle.last_resume_tick", optional=True)
    for path in ("state_space.epsilon", "throttle.beta"):
        _floats([_field(payload, path)], path)
    for path, enum_type in (
        ("mode_bank.current_mode", ExecutionMode),
        ("throttle.last_resume_reason", ResumeReason),
        ("controller.prev_mode", ExecutionMode),
    ):
        _member(_field(payload, path), enum_type, path, optional=True)
    _floats(_field(payload, "controller.prev_coords"), "controller.prev_coords", 2, optional=True)
    for path in ("predictor_rng", "throttle.rng"):
        try:
            np.random.default_rng(0).bit_generator.state = _field(payload, path)
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise _bad(path, f"is not a generator state ({exc})") from None

    reps = _field(payload, "state_space.representatives")
    if not isinstance(reps, list):
        raise _bad("state_space.representatives", "must be a list")
    width = len(reps[0]) if reps and isinstance(reps[0], list) else None
    for row in reps:
        _floats(row, "state_space.representatives", width)
    for key in ("counts", "coords", "labels"):
        rows = _field(payload, f"state_space.{key}")
        if not isinstance(rows, list) or len(rows) != len(reps):
            raise _bad(f"state_space.{key}", f"must be a list of {len(reps)} entries")
        for row in rows:
            if key == "counts":
                _int(row, "state_space.counts")
            elif key == "coords":
                _floats(row, "state_space.coords", 2)
            else:
                _member(row, StateLabel, "state_space.labels")

    modes = _field(payload, "modes")
    if not isinstance(modes, dict):
        raise _bad("modes", "must be an object")
    for mode in modes:
        _member(mode, ExecutionMode, "modes")
        for key in ("distances", "angles"):
            _floats(_field(payload, f"modes.{mode}.{key}"), f"modes.{mode}.{key}")
        _int(_field(payload, f"modes.{mode}.steps_observed"), f"modes.{mode}.steps_observed")
        path = f"modes.{mode}.last_point"
        _floats(_field(payload, path), path, 2, optional=True)

    if not isinstance(_field(payload, "throttle.throttling"), bool):
        raise _bad("throttle.throttling", "must be a boolean")
    names = _field(payload, "throttle.paused_names")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise _bad("throttle.paused_names", "must be a list of container names")
    retry = _field(payload, "throttle.retry")
    if not isinstance(retry, dict):
        raise _bad("throttle.retry", "must be an object")
    for name, row in retry.items():
        if not isinstance(row, list) or len(row) != 2:
            raise _bad(f"throttle.retry.{name}", "must be [failures, next_tick]")
        for value in row:
            _int(value, f"throttle.retry.{name}")


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
class ControllerCheckpoint:
    """A serializable snapshot of everything a controller has learned.

    Captured state: the deduplicated state space (representatives,
    coordinates, labels, refit bookkeeping), the per-execution-mode
    step/angle histograms, the throttle machine (beta, pause-set,
    counters, resume provenance) and both RNG streams.
    """

    payload: Dict[str, Any]

    # -- capture -----------------------------------------------------------
    @classmethod
    def capture(cls, controller, tick: Optional[int] = None) -> "ControllerCheckpoint":
        """Snapshot a live controller's learned state."""
        space = controller.state_space
        bank = controller.predictor.modes
        throttle = controller.throttle
        payload: Dict[str, Any] = {
            "captured_tick": int(
                tick if tick is not None else controller.last_period_tick or 0
            ),
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
            "throttle": {
                "beta": float(throttle.beta),
                "throttling": bool(throttle.throttling),
                "paused_names": list(throttle._paused_names),
                "throttle_count": int(throttle.throttle_count),
                "resume_count": int(throttle.resume_count),
                "probe_resume_count": int(throttle.probe_resume_count),
                "stagnant_periods": int(throttle._stagnant_periods),
                "last_resume_tick": throttle._last_resume_tick,
                "last_resume_reason": (
                    None
                    if throttle._last_resume_reason is None
                    else throttle._last_resume_reason.value
                ),
                "retry": {
                    name: [int(failures), int(next_tick)]
                    for name, (failures, next_tick) in throttle._retry.items()
                },
                "rng": _rng_state(throttle.rng),
            },
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

    # -- restore -----------------------------------------------------------
    def restore_into(self, controller) -> None:
        """Load this snapshot into a *fresh* controller.

        The controller must not have run a period yet (its mapping
        pipeline is created lazily against the restored state space).
        """
        if controller.mapping is not None or controller.trajectory:
            raise CheckpointError(
                "restore requires a fresh controller (it has already run)"
            )
        data = self.payload
        config = controller.config

        # State space.
        ss = data["state_space"]
        space = StateSpace(
            epsilon=float(ss["epsilon"]),
            radius_law=config.radius_law,
            fixed_radius=config.fixed_radius,
        )
        self._restore_state_space_into(space, ss)
        space.telemetry = controller.state_space.telemetry
        controller.state_space = space

        self._restore_learned_models(controller)

        # Throttle machine.
        ts = data["throttle"]
        throttle = controller.throttle
        throttle.beta = float(ts["beta"])
        throttle.throttling = bool(ts["throttling"])
        throttle._paused_names = list(ts["paused_names"])
        throttle.throttle_count = int(ts["throttle_count"])
        throttle.resume_count = int(ts["resume_count"])
        throttle.probe_resume_count = int(ts["probe_resume_count"])
        throttle._stagnant_periods = int(ts["stagnant_periods"])
        throttle._last_resume_tick = ts["last_resume_tick"]
        throttle._last_resume_reason = (
            None
            if ts["last_resume_reason"] is None
            else ResumeReason(ts["last_resume_reason"])
        )
        throttle._retry = {
            name: (int(failures), int(next_tick))
            for name, (failures, next_tick) in ts["retry"].items()
        }
        throttle.rng.bit_generator.state = ts["rng"]

        controller.events.record(
            int(data["captured_tick"]),
            EventKind.CHECKPOINT_RESTORED,
            states=len(space),
            beta=throttle.beta,
        )

    def restore_models_into(self, controller) -> None:
        """Roll a *running* controller's learned models back to this snapshot.

        In-flight rollback for the model-health watchdog: the state
        space is restored **in place** (every live reference — the
        mapping pipeline, the template exporter — keeps seeing the same
        object), and the per-mode trajectory models, the predictor RNG
        stream and the controller's step-distance continuity are reset
        to snapshot time. The throttle machine is deliberately left
        alone: its pause-set reflects *actual* container states, which a
        model rollback must not contradict.

        The snapshot's representative dimensionality must match the
        running space (same normalizer); a mismatch raises
        :class:`CheckpointError`.
        """
        ss = self.payload["state_space"]
        space = controller.state_space
        if ss["representatives"] and len(space.representatives._points):
            snap_dim = len(ss["representatives"][0])
            if space.representatives.dimension not in (None, snap_dim):
                raise CheckpointError(
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
            raise CheckpointError("inconsistent state-space payload")
        # Coords/labels were rewritten wholesale behind the cache: any
        # violation geometry materialized before this point is stale.
        space.invalidate_geometry()

    def _restore_learned_models(self, controller) -> None:
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

    # -- serialization -----------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the checkpoint (tmp file + fsync + replace).

        A failed write removes its temporary file and raises
        :class:`CheckpointError`; the previous checkpoint at ``path``
        is left intact either way.
        """
        path = Path(path)
        envelope = {
            "format": FORMAT,
            "version": VERSION,
            "checksum": _checksum(self.payload),
            "payload": self.payload,
        }
        tmp = path.with_name(path.name + ".tmp")
        data = json.dumps(envelope, indent=2)
        try:
            with open(tmp, "w") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ControllerCheckpoint":
        """Read and verify a checkpoint written by :meth:`save`.

        The whole payload is checked before it is returned (see the
        module's "schema" rule), so :meth:`restore_into` of a loaded
        checkpoint cannot fail halfway. Any stale ``<name>.tmp`` sibling left by a crash mid-save is
        removed first: a completed :meth:`save` never leaves one behind
        (``os.replace`` consumes it), so its existence means the write
        it belonged to never finished.
        """
        path = Path(path)
        cleanup_stale_tmp(path)
        try:
            envelope = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if not isinstance(envelope, dict) or envelope.get("format") != FORMAT:
            raise CheckpointError(f"{path} is not a Stay-Away checkpoint")
        if envelope.get("version") != VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {envelope.get('version')!r}"
            )
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            raise CheckpointError(f"{path} has no payload")
        if _checksum(payload) != envelope.get("checksum"):
            raise CheckpointError(f"checksum mismatch in {path} (corrupt checkpoint)")
        _validate(payload)
        return cls(payload=payload)

    # -- introspection -----------------------------------------------------
    @property
    def captured_tick(self) -> int:
        """Tick at which the snapshot was taken."""
        return int(self.payload["captured_tick"])

    @property
    def state_count(self) -> int:
        """Number of mapped states in the snapshot."""
        return len(self.payload["state_space"]["labels"])

    @property
    def beta(self) -> float:
        """The learned resume threshold at capture time."""
        return float(self.payload["throttle"]["beta"])


def cleanup_stale_tmp(path: Union[str, Path]) -> bool:
    """Remove the abandoned ``<name>.tmp`` sibling of a checkpoint path.

    Returns True when a stale temporary file was found and removed.
    Safe to call any time: a finished :meth:`ControllerCheckpoint.save`
    consumes its temporary via ``os.replace``, so whatever this finds is
    the debris of a crash mid-save.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.unlink()
    except FileNotFoundError:
        return False
    except OSError:
        return False
    return True


def save_checkpoint(
    controller, path: Union[str, Path], tick: Optional[int] = None
) -> Path:
    """Capture and atomically persist a controller's learned state."""
    return ControllerCheckpoint.capture(controller, tick=tick).save(path)


def restore_checkpoint(controller, path: Union[str, Path]) -> ControllerCheckpoint:
    """Load a checkpoint file into a fresh controller; returns it."""
    checkpoint = ControllerCheckpoint.load(path)
    checkpoint.restore_into(controller)
    return checkpoint


__all__ = [
    "CheckpointError",
    "ControllerCheckpoint",
    "cleanup_stale_tmp",
    "restore_checkpoint",
    "save_checkpoint",
]
