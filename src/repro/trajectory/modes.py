"""Execution modes and the per-mode model bank.

"At any point in time, one of these 4 execution modes hold true: no
application is running; batch application runs alone; latency-sensitive
application runs alone; co-located execution" (§3.2.3). No single model
captures all of them — "modelling all the different execution modes
using a single model fails to capture the inherent patterns" — so the
predictor keeps one :class:`~repro.trajectory.sampling.TrajectoryModel`
per mode. Since the Stay-Away runtime manages the containers, it can
always determine the current mode exactly.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

import numpy as np

from repro.trajectory.sampling import TrajectoryModel

#: Steps each mode's step/angle histograms remember (sliding window).
MODEL_WINDOW = 400
#: Histogram bins per step/angle pdf.
MODEL_BINS = 16

class ExecutionMode(enum.Enum):
    """The paper's four execution modes."""

    IDLE = "idle"
    BATCH_ONLY = "batch-only"
    SENSITIVE_ONLY = "sensitive-only"
    COLOCATED = "colocated"


def classify_mode(sensitive_active: bool, batch_active: bool) -> ExecutionMode:
    """Current execution mode from container run states.

    ``batch_active`` must be False when every batch container is paused
    or finished — a throttled system is in SENSITIVE_ONLY mode ("Upon
    throttling, the system moves to a different execution mode", §3.3).
    """
    if sensitive_active and batch_active:
        return ExecutionMode.COLOCATED
    if sensitive_active:
        return ExecutionMode.SENSITIVE_ONLY
    if batch_active:
        return ExecutionMode.BATCH_ONLY
    return ExecutionMode.IDLE


class ModeModelBank:
    """One trajectory model per execution mode, with switch handling.

    Feeding a point under a different mode than the previous point
    breaks step continuity in both models, so cross-mode jumps never
    pollute a mode's step distributions.
    """

    def __init__(self) -> None:
        self.models: Dict[ExecutionMode, TrajectoryModel] = {
            mode: TrajectoryModel(window=MODEL_WINDOW, bins=MODEL_BINS)
            for mode in ExecutionMode
        }
        #: Mode of the most recently observed point.
        self.current_mode: Optional[ExecutionMode] = None
        self.mode_switches = 0

    def model(self, mode: ExecutionMode) -> TrajectoryModel:
        """The trajectory model for one mode."""
        return self.models[mode]

    def observe(self, mode: ExecutionMode, point: np.ndarray) -> TrajectoryModel:
        """Record a mapped position under its execution mode.

        Returns the model that absorbed the observation.
        """
        if mode is not self.current_mode:
            if self.current_mode is not None:
                self.mode_switches += 1
            # New mode: its model must not chain a step from whatever
            # point it saw long ago; restart its track here.
            self.models[mode].break_continuity()
            self.current_mode = mode
        model = self.models[mode]
        model.observe(point)
        return model
