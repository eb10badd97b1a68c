"""Unit tests for execution modes and the mode model bank."""

import numpy as np
import pytest

from repro.trajectory.modes import ExecutionMode, ModeModelBank, classify_mode


class TestClassifyMode:
    @pytest.mark.parametrize(
        "sensitive,batch,expected",
        [
            (False, False, ExecutionMode.IDLE),
            (True, False, ExecutionMode.SENSITIVE_ONLY),
            (False, True, ExecutionMode.BATCH_ONLY),
            (True, True, ExecutionMode.COLOCATED),
        ],
    )
    def test_all_four_modes(self, sensitive, batch, expected):
        assert classify_mode(sensitive, batch) is expected


class TestModeModelBank:
    def test_one_model_per_mode(self):
        bank = ModeModelBank()
        assert set(bank.models) == set(ExecutionMode)

    def test_observation_routed_to_mode(self):
        bank = ModeModelBank()
        bank.observe(ExecutionMode.COLOCATED, np.array([0.0, 0.0]))
        bank.observe(ExecutionMode.COLOCATED, np.array([0.1, 0.0]))
        assert bank.model(ExecutionMode.COLOCATED).steps_observed == 1
        assert bank.model(ExecutionMode.IDLE).steps_observed == 0

    def test_mode_switch_breaks_continuity(self):
        bank = ModeModelBank()
        bank.observe(ExecutionMode.COLOCATED, np.array([0.0, 0.0]))
        bank.observe(ExecutionMode.SENSITIVE_ONLY, np.array([5.0, 5.0]))
        bank.observe(ExecutionMode.COLOCATED, np.array([10.0, 10.0]))
        # Neither model may record the cross-mode jump as a step.
        assert bank.model(ExecutionMode.COLOCATED).steps_observed == 0
        assert bank.model(ExecutionMode.SENSITIVE_ONLY).steps_observed == 0
        assert bank.mode_switches == 2

    def test_returning_mode_restarts_its_track(self):
        bank = ModeModelBank()
        bank.observe(ExecutionMode.COLOCATED, np.array([0.0, 0.0]))
        bank.observe(ExecutionMode.COLOCATED, np.array([0.1, 0.0]))
        bank.observe(ExecutionMode.SENSITIVE_ONLY, np.array([5.0, 5.0]))
        bank.observe(ExecutionMode.COLOCATED, np.array([9.0, 9.0]))
        bank.observe(ExecutionMode.COLOCATED, np.array([9.1, 9.0]))
        model = bank.model(ExecutionMode.COLOCATED)
        assert model.steps_observed == 2
        # Both recorded steps are small (0.1): the 9-unit jump was skipped.
        assert np.max(model.distances.samples) == pytest.approx(0.1, abs=1e-9)

    def test_current_mode_and_active_model(self):
        bank = ModeModelBank()
        assert bank.current_mode is None
        active = bank.observe(ExecutionMode.BATCH_ONLY, np.array([0.0, 0.0]))
        assert bank.current_mode is ExecutionMode.BATCH_ONLY
        assert active is bank.model(ExecutionMode.BATCH_ONLY)
