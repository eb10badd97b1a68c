"""Map templates: reuse a learned map across executions (§6).

"In case of repeatable latency sensitive applications, the
violation-states in the generated map from a previous execution can be
used as a starting point and is a valid map for a new execution with a
different batch application." The mapped states are representative of
load at the *resource* level, so they transfer across batch co-tenants.

A :class:`MapTemplate` serializes the representative vectors, their 2-D
coordinates, their labels and the learned beta; loading it pre-seeds a
fresh :class:`~repro.core.state_space.StateSpace`. It is also the
restart format: a controller started from its predecessor's template
keeps the learned map, and adopts the batch containers its predecessor
left paused (:meth:`~repro.core.action.ThrottleManager.adopt`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

from repro.core.state_space import StateLabel, StateSpace


@dataclass
class MapTemplate:
    """A serializable snapshot of a learned state-space map.

    Attributes
    ----------
    representatives:
        ``(n, d)`` normalized high-dimensional representative vectors.
    coords:
        ``(n, 2)`` mapped coordinates.
    labels:
        Safe/violation label per state.
    epsilon:
        Dedup radius the map was built with (must match on reuse).
    beta:
        The learned resume threshold at capture time.
    metadata:
        Free-form provenance (workloads, ticks, ...).
    """

    representatives: np.ndarray
    coords: np.ndarray
    labels: List[StateLabel]
    epsilon: float
    beta: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.representatives = np.asarray(self.representatives, dtype=float)
        self.coords = np.asarray(self.coords, dtype=float)
        # A map with no states serializes both matrices as ``[]``.
        if self.representatives.shape == (0,):
            self.representatives = self.representatives.reshape(0, 0)
        if self.coords.shape == (0,):
            self.coords = self.coords.reshape(0, 2)
        if self.representatives.ndim != 2:
            raise ValueError(
                "template representatives must be an (n, d) matrix, "
                f"got shape {self.representatives.shape}"
            )
        n = self.representatives.shape[0]
        if self.coords.shape != (n, 2):
            raise ValueError(
                f"coords shape {self.coords.shape} does not match {n} representatives"
            )
        if len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} representatives")
        if not (np.isfinite(self.representatives).all() and np.isfinite(self.coords).all()):
            raise ValueError("template representatives and coords must be finite")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"template beta must be finite and > 0, got {self.beta!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"template epsilon must be finite and > 0, got {self.epsilon!r}")

    @property
    def violation_count(self) -> int:
        """Number of violation-states captured in the template."""
        return sum(1 for label in self.labels if label is StateLabel.VIOLATION)

    # -- capture -----------------------------------------------------------
    @classmethod
    def from_state_space(
        cls,
        state_space: StateSpace,
        beta: float,
        metadata: Union[Dict[str, Any], None] = None,
    ) -> "MapTemplate":
        """Snapshot a live state space."""
        return cls(
            representatives=state_space.representatives.points.copy(),
            coords=state_space.coords.copy(),
            labels=list(state_space.labels),
            epsilon=state_space.representatives.epsilon,
            beta=beta,
            metadata=dict(metadata or {}),
        )

    # -- reuse ---------------------------------------------------------------
    def build_state_space(
        self,
        radius_law: str = "rayleigh",
        fixed_radius: float = 0.05,
        telemetry=None,
    ) -> StateSpace:
        """A fresh state space pre-seeded with this template's map.

        ``telemetry`` is handed to the :class:`StateSpace` (the
        controller passes its own).
        """
        space = StateSpace(
            epsilon=self.epsilon,
            radius_law=radius_law,
            fixed_radius=fixed_radius,
            telemetry=telemetry,
        )
        for row, label in zip(self.representatives, self.labels):
            index, is_new = space.representatives.assign(row)
            if not is_new:
                raise ValueError(
                    "template representatives are not epsilon-separated; "
                    f"row {index} merged on reload"
                )
            space.labels.append(label)
        space.coords = self.coords.copy()
        # Labels/coords were written directly (not via add_sample), so
        # honor the geometry-cache contract explicitly.
        space.invalidate_geometry()
        return space

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary form."""
        return {
            "representatives": self.representatives.tolist(),
            "coords": self.coords.tolist(),
            "labels": [label.value for label in self.labels],
            "epsilon": self.epsilon,
            "beta": self.beta,
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MapTemplate":
        """Inverse of :meth:`to_dict`; a missing key or a value of the
        wrong type raises ``ValueError`` like any other bad template."""
        try:
            return cls(
                representatives=np.asarray(data["representatives"], dtype=float),
                coords=np.asarray(data["coords"], dtype=float),
                labels=[StateLabel(value) for value in data["labels"]],
                epsilon=float(data["epsilon"]),
                beta=float(data["beta"]),
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed template: {exc!r}") from exc

    def save(self, path: Union[str, Path]) -> Path:
        """Atomically write the template as JSON; returns the path.

        The JSON goes to a temporary file in the same directory, is
        fsynced, then replaces ``path``: a write that fails removes its
        temporary, re-raises, and leaves any previous template at
        ``path`` as it was.
        """
        path = Path(path)
        data = json.dumps(self.to_dict(), indent=2)
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "w") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "MapTemplate":
        """Read a template previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))
